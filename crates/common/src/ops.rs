//! Application-level transaction profiles.
//!
//! Workload generators (`basil-workloads`) describe each transaction as a
//! list of [`Op`]s; the Basil client and the baseline clients execute these
//! profiles against their respective protocols. Keeping the type here lets
//! the generators stay independent of any particular protocol
//! implementation.

use crate::kv::{Key, Value};

/// One application-level operation inside a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read a key.
    Read(Key),
    /// Write a key with a precomputed value.
    Write(Key, Value),
    /// Read a key, interpret the current value as a `u64` counter, add
    /// `delta` (saturating at zero), and write it back. This covers the
    /// read-modify-write pattern of the banking and retail workloads
    /// (balance updates, stock decrements) while keeping profiles
    /// serializable data, not closures.
    RmwAdd {
        /// Key to read and write.
        key: Key,
        /// Signed delta applied to the current value.
        delta: i64,
    },
}

impl Op {
    /// The key this operation touches.
    pub fn key(&self) -> &Key {
        match self {
            Op::Read(k) => k,
            Op::Write(k, _) => k,
            Op::RmwAdd { key, .. } => key,
        }
    }

    /// Whether the operation performs a read.
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Read(_) | Op::RmwAdd { .. })
    }

    /// Whether the operation performs a write.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write(_, _) | Op::RmwAdd { .. })
    }
}

/// A full transaction profile produced by a workload generator.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TxProfile {
    /// The operations, executed in order.
    pub ops: Vec<Op>,
    /// A workload-specific label ("payment", "new_order", ...) used for
    /// per-transaction-type statistics.
    pub label: &'static str,
}

impl TxProfile {
    /// Creates a profile from operations with a label.
    pub fn new(label: &'static str, ops: Vec<Op>) -> Self {
        TxProfile { ops, label }
    }

    /// Number of read operations (RMW counts as one read).
    pub fn reads(&self) -> usize {
        self.ops.iter().filter(|o| o.is_read()).count()
    }

    /// Number of write operations (RMW counts as one write).
    pub fn writes(&self) -> usize {
        self.ops.iter().filter(|o| o.is_write()).count()
    }
}

/// Source of transaction profiles for one client: the closed-loop driver asks
/// for the next transaction as soon as the previous one finishes.
///
/// `Send` is required because client actors (which own their generator) are
/// built on one thread and run on another by the TCP runtime and the
/// benchmark's client threads.
pub trait TxGenerator: Send {
    /// Produces the next transaction to run, or `None` when the client should
    /// stop issuing new transactions.
    fn next_tx(&mut self) -> Option<TxProfile>;

    /// For open-loop generators: the delay until the next transaction
    /// *arrival*, drawn from the generator's (seeded, deterministic)
    /// inter-arrival distribution. Returning `Some` switches the driving
    /// client into open-loop mode — arrivals are scheduled on the simulated
    /// clock independently of completions, queued up to an admission bound,
    /// and shed beyond it. The default (`None`) keeps the classic
    /// closed-loop behaviour: the next transaction starts when the previous
    /// one finishes.
    fn next_arrival_delay(&mut self) -> Option<crate::Duration> {
        None
    }
}

impl<G: TxGenerator + ?Sized> TxGenerator for Box<G> {
    fn next_tx(&mut self) -> Option<TxProfile> {
        (**self).next_tx()
    }

    // Forwarded explicitly: the trait default would answer `None` and
    // silently turn a boxed open-loop generator back into a closed loop.
    fn next_arrival_delay(&mut self) -> Option<crate::Duration> {
        (**self).next_arrival_delay()
    }
}

/// A generator that replays a fixed list of profiles once. Convenient in
/// tests and examples.
#[derive(Clone, Debug, Default)]
pub struct ScriptedGenerator {
    script: std::collections::VecDeque<TxProfile>,
}

impl ScriptedGenerator {
    /// Creates a generator that yields the given profiles in order.
    pub fn new(script: impl IntoIterator<Item = TxProfile>) -> Self {
        ScriptedGenerator {
            script: script.into_iter().collect(),
        }
    }

    /// Number of transactions remaining in the script.
    pub fn remaining(&self) -> usize {
        self.script.len()
    }
}

impl TxGenerator for ScriptedGenerator {
    fn next_tx(&mut self) -> Option<TxProfile> {
        self.script.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        let r = Op::Read(Key::new("a"));
        let w = Op::Write(Key::new("b"), Value::from_u64(1));
        let m = Op::RmwAdd {
            key: Key::new("c"),
            delta: -5,
        };
        assert!(r.is_read() && !r.is_write());
        assert!(!w.is_read() && w.is_write());
        assert!(m.is_read() && m.is_write());
        assert_eq!(r.key(), &Key::new("a"));
        assert_eq!(m.key(), &Key::new("c"));
    }

    #[test]
    fn profile_counts() {
        let p = TxProfile::new(
            "mixed",
            vec![
                Op::Read(Key::new("a")),
                Op::Write(Key::new("b"), Value::from_u64(1)),
                Op::RmwAdd {
                    key: Key::new("c"),
                    delta: 1,
                },
            ],
        );
        assert_eq!(p.reads(), 2);
        assert_eq!(p.writes(), 2);
        assert_eq!(p.label, "mixed");
    }

    #[test]
    fn scripted_generator_replays_in_order() {
        let mut g =
            ScriptedGenerator::new([TxProfile::new("one", vec![]), TxProfile::new("two", vec![])]);
        assert_eq!(g.remaining(), 2);
        assert_eq!(g.next_tx().expect("first").label, "one");
        assert_eq!(g.next_tx().expect("second").label, "two");
        assert!(g.next_tx().is_none());
    }
}
