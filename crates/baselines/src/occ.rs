//! A classic optimistic-concurrency-control store with two-phase commit
//! locking, used by the baseline systems.
//!
//! The paper's baselines (TxHotstuff and TxBFT-SMaRt) layer "a standard
//! optimistic concurrency control serializability check [Kung & Robinson]"
//! and a 2PC coordination layer on top of a totally ordered shard
//! (Section 6, *Baselines*). TAPIR's execution layer is modelled the same
//! way. This module implements that execution layer: versioned reads,
//! backward validation at prepare time, prepare locks to bridge the window
//! between a shard's prepare and the coordinator's final decision, and
//! commit/abort application.

use basil_common::error::AbortReason;
use basil_common::{FastHashMap, Key, Timestamp, TxId, Value};
use basil_store::{Decision, Transaction, Vote};
use std::sync::Arc;

/// Per-key state of the OCC store.
#[derive(Clone, Debug)]
struct Entry {
    /// Timestamp (of the writing transaction) identifying the installed
    /// version. The initial load uses [`Timestamp::ZERO`].
    ///
    /// This is *application order*, not timestamp order: the shard's
    /// consensus log decides which write is current, and a later-applied
    /// write with a smaller timestamp replaces an earlier one.
    version: Timestamp,
    value: Value,
    /// Transaction currently holding the prepare lock on this key, if any.
    locked_by: Option<TxId>,
}

impl Entry {
    fn fresh() -> Self {
        Entry {
            version: Timestamp::ZERO,
            value: Value::empty(),
            locked_by: None,
        }
    }
}

/// The OCC execution store of one baseline shard replica.
#[derive(Clone, Debug, Default)]
pub struct OccStore {
    data: FastHashMap<Key, Entry>,
    /// Prepared transactions whose decision has not arrived yet, shared with
    /// the consensus batches that carried them.
    prepared: FastHashMap<TxId, Arc<Transaction>>,
    committed: u64,
    /// Transactions committed through this store, retained for the
    /// harness-level serializability audit.
    committed_log: Vec<Arc<Transaction>>,
    /// Final decision applied per transaction (only transactions that were
    /// actually prepared here are recorded).
    decisions: FastHashMap<TxId, Decision>,
}

impl OccStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store preloaded with initial data (version
    /// [`Timestamp::ZERO`]).
    pub fn with_initial_data(data: impl IntoIterator<Item = (Key, Value)>) -> Self {
        let mut s = Self::new();
        for (key, value) in data {
            let mut entry = Entry::fresh();
            entry.value = value;
            s.data.insert(key, entry);
        }
        s
    }

    /// Reads the currently committed version of `key`.
    /// Returns the version identifier and value; absent keys read as an empty
    /// value at version zero (and can be written later).
    pub fn read(&self, key: &Key) -> (Timestamp, Value) {
        match self.data.get(key) {
            Some(e) => (e.version, e.value.clone()),
            None => (Timestamp::ZERO, Value::empty()),
        }
    }

    /// OCC prepare: backward-validates the transaction's reads against the
    /// currently installed versions and acquires write locks. Must be called
    /// in the shard's serialization order (the baselines order prepares
    /// through consensus before executing them).
    pub fn prepare(&mut self, tx: &Arc<Transaction>) -> Vote {
        let txid = tx.id();
        if self.prepared.contains_key(&txid) {
            return Vote::Commit; // duplicate delivery
        }
        // Validation: every read must still be the installed version, and no
        // read key may be locked by a concurrent prepared transaction.
        for read in tx.read_set() {
            let (current, _) = self.read(&read.key);
            if current != read.version {
                return Vote::Abort(AbortReason::Conflict);
            }
            if let Some(entry) = self.data.get(&read.key) {
                if entry.locked_by.is_some() && entry.locked_by != Some(txid) {
                    return Vote::Abort(AbortReason::Conflict);
                }
            }
        }
        // Lock acquisition for writes.
        for write in tx.write_set() {
            if let Some(entry) = self.data.get(&write.key) {
                if entry.locked_by.is_some() && entry.locked_by != Some(txid) {
                    return Vote::Abort(AbortReason::Conflict);
                }
            }
        }
        for write in tx.write_set() {
            self.data
                .entry(write.key.clone())
                .or_insert_with(Entry::fresh)
                .locked_by = Some(txid);
        }
        self.prepared.insert(txid, Arc::clone(tx));
        Vote::Commit
    }

    /// Applies the commit decision for a prepared transaction: installs its
    /// writes (versioned by the transaction's timestamp) and releases locks.
    pub fn commit(&mut self, txid: &TxId) {
        let Some(tx) = self.prepared.remove(txid) else {
            return;
        };
        for write in tx.write_set() {
            let entry = self
                .data
                .entry(write.key.clone())
                .or_insert_with(Entry::fresh);
            entry.version = tx.timestamp();
            entry.value = write.value.clone();
            entry.locked_by = None;
        }
        self.committed += 1;
        self.decisions.insert(*txid, Decision::Commit);
        self.committed_log.push(tx);
    }

    /// Applies an abort decision: releases the transaction's locks.
    pub fn abort(&mut self, txid: &TxId) {
        let Some(tx) = self.prepared.remove(txid) else {
            return;
        };
        for write in tx.write_set() {
            if let Some(entry) = self.data.get_mut(&write.key) {
                if entry.locked_by == Some(*txid) {
                    entry.locked_by = None;
                }
            }
        }
        self.decisions.insert(*txid, Decision::Abort);
    }

    /// Whether `txid` is currently prepared (locked, awaiting decision).
    pub fn is_prepared(&self, txid: &TxId) -> bool {
        self.prepared.contains_key(txid)
    }

    /// Number of transactions committed through this store.
    pub fn committed_count(&self) -> u64 {
        self.committed
    }

    /// The committed value of a key (test/inspection helper).
    pub fn committed_value(&self, key: &Key) -> Option<Value> {
        self.data.get(key).map(|e| e.value.clone())
    }

    /// Iterates over the transactions committed through this store, in
    /// commit order, without cloning them (for the harness-level
    /// serializability audit).
    pub fn committed_iter(&self) -> impl Iterator<Item = &Transaction> {
        self.committed_log.iter().map(|tx| tx.as_ref())
    }

    /// The decision applied for `txid`, if this store prepared and then
    /// decided it.
    pub fn decision(&self, txid: &TxId) -> Option<Decision> {
        self.decisions.get(txid).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::ClientId;
    use basil_store::TransactionBuilder;

    fn ts(t: u64, c: u64) -> Timestamp {
        Timestamp::from_nanos(t, ClientId(c))
    }

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn store() -> OccStore {
        OccStore::with_initial_data([(k("x"), Value::from_u64(0)), (k("y"), Value::from_u64(0))])
    }

    fn rmw(t: u64, key: &str, read_version: Timestamp, val: u64) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(ts(t, t));
        b.record_read(k(key), read_version);
        b.record_write(k(key), Value::from_u64(val));
        b.build_shared()
    }

    #[test]
    fn read_validate_commit_cycle() {
        let mut s = store();
        let (v0, _) = s.read(&k("x"));
        let t = rmw(100, "x", v0, 5);
        assert!(s.prepare(&t).is_commit());
        s.commit(&t.id());
        assert_eq!(s.read(&k("x")).1, Value::from_u64(5));
        assert_eq!(s.read(&k("x")).0, ts(100, 100));
        assert_eq!(s.committed_count(), 1);
    }

    #[test]
    fn stale_read_fails_validation() {
        let mut s = store();
        let t1 = rmw(100, "x", Timestamp::ZERO, 5);
        assert!(s.prepare(&t1).is_commit());
        s.commit(&t1.id());

        // t2 read the old version of x before t1 committed.
        let t2 = rmw(200, "x", Timestamp::ZERO, 7);
        assert_eq!(s.prepare(&t2), Vote::Abort(AbortReason::Conflict));
    }

    #[test]
    fn prepare_lock_blocks_concurrent_writer_until_decision() {
        let mut s = store();
        let t1 = rmw(100, "x", Timestamp::ZERO, 5);
        assert!(s.prepare(&t1).is_commit());

        // Another transaction writing x while t1 is prepared must abort.
        let t2 = rmw(200, "x", Timestamp::ZERO, 7);
        assert_eq!(s.prepare(&t2), Vote::Abort(AbortReason::Conflict));

        // Once t1 aborts, its locks are released and the key is writable
        // again (with the still-valid read version).
        s.abort(&t1.id());
        let t3 = rmw(300, "x", Timestamp::ZERO, 9);
        assert!(s.prepare(&t3).is_commit());
        s.commit(&t3.id());
        assert_eq!(s.committed_value(&k("x")), Some(Value::from_u64(9)));
    }

    #[test]
    fn read_lock_conflict_blocks_reader_of_locked_key() {
        let mut s = store();
        let t1 = rmw(100, "x", Timestamp::ZERO, 5);
        assert!(s.prepare(&t1).is_commit());
        // A transaction that reads x while it is locked must abort (it cannot
        // know which version it would serialize against).
        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_read(k("x"), Timestamp::ZERO);
        b.record_write(k("y"), Value::from_u64(1));
        let t2 = b.build_shared();
        assert_eq!(s.prepare(&t2), Vote::Abort(AbortReason::Conflict));
    }

    #[test]
    fn disjoint_transactions_do_not_conflict() {
        let mut s = store();
        let t1 = rmw(100, "x", Timestamp::ZERO, 1);
        let t2 = rmw(110, "y", Timestamp::ZERO, 2);
        assert!(s.prepare(&t1).is_commit());
        assert!(s.prepare(&t2).is_commit());
        s.commit(&t1.id());
        s.commit(&t2.id());
        assert_eq!(s.committed_count(), 2);
    }

    #[test]
    fn writes_to_new_keys_are_allowed() {
        let mut s = store();
        let mut b = TransactionBuilder::new(ts(50, 1));
        b.record_write(k("fresh"), Value::from_u64(1));
        let t = b.build_shared();
        assert!(s.prepare(&t).is_commit());
        s.commit(&t.id());
        assert_eq!(s.committed_value(&k("fresh")), Some(Value::from_u64(1)));
    }

    #[test]
    fn duplicate_prepare_and_unknown_decisions_are_harmless() {
        let mut s = store();
        let t = rmw(100, "x", Timestamp::ZERO, 5);
        assert!(s.prepare(&t).is_commit());
        assert!(s.prepare(&t).is_commit());
        s.commit(&TxId::from_bytes([7; 32])); // unknown txid: no-op
        s.abort(&TxId::from_bytes([8; 32]));
        assert!(s.is_prepared(&t.id()));
        s.commit(&t.id());
        assert!(!s.is_prepared(&t.id()));
    }
}
