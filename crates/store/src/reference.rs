//! Test-only reference implementation of the MVTSO store, kept as the
//! pre-flattening nested-`BTreeMap` code, plus a property test asserting
//! that the flattened [`MvtsoStore`](crate::MvtsoStore) makes bit-identical
//! prepare/commit/abort decisions under random interleavings.
//!
//! The flattened store's correctness argument has two halves: the slow scans
//! are a mechanical translation of the `BTreeMap` range queries, and the
//! watermark fast path only *skips* scans whose verdict is provably
//! no-conflict. This module checks both halves empirically: every operation
//! is applied to both stores and every observable — check outcomes, released
//! deferred votes, read results, final decisions, latest committed values —
//! must match exactly, including across GC sweeps. Half of the keys start
//! without a genesis version, so GC sweeps between a prepare and its decision
//! really release key records and recycle their arena slots under the slots
//! prepared transactions hold.

use crate::mvtso::{CheckOutcome, CommittedVersion, Decision, PreparedVersion, ReadResult, Vote};
use crate::tx::Transaction;
use basil_common::config::shard_for_key;
use basil_common::error::AbortReason;
use basil_common::{
    Duration, FastHashMap, FastHashSet, Key, ShardId, SimTime, Timestamp, TxId, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The original nested-`BTreeMap` MVTSO store (pre-PR-4 layout), preserved
/// verbatim as a behavioural oracle.
#[derive(Debug, Default)]
pub struct ReferenceStore {
    committed_versions: FastHashMap<Key, BTreeMap<Timestamp, (TxId, Value)>>,
    committed_txs: FastHashMap<TxId, Arc<Transaction>>,
    committed_reads: FastHashMap<Key, BTreeMap<Timestamp, Timestamp>>,
    prepared_txs: FastHashMap<TxId, Arc<Transaction>>,
    prepared_writes: FastHashMap<Key, BTreeMap<Timestamp, TxId>>,
    prepared_reads: FastHashMap<Key, BTreeMap<Timestamp, Timestamp>>,
    rts: FastHashMap<Key, BTreeSet<Timestamp>>,
    decisions: FastHashMap<TxId, Decision>,
    aborted: FastHashSet<TxId>,
    pending: FastHashMap<TxId, FastHashSet<TxId>>,
    waiters: FastHashMap<TxId, Vec<TxId>>,
    /// Mirrors the flattened store's GC floor (adopted in both
    /// implementations: prepares at or below the highest GC watermark are
    /// refused because their conflict evidence is gone).
    gc_watermark: Timestamp,
    /// Mirrors the flattened store's placement: a dependency on a key
    /// another shard holds is neither checked nor waited on.
    shard: Option<(ShardId, u32)>,
}

impl ReferenceStore {
    pub fn with_initial_data(data: impl IntoIterator<Item = (Key, Value)>) -> Self {
        let mut store = Self::default();
        for (key, value) in data {
            store
                .committed_versions
                .entry(key)
                .or_default()
                .insert(Timestamp::ZERO, (TxId::default(), value));
        }
        store
    }

    pub fn for_shard(mut self, shard: ShardId, num_shards: u32) -> Self {
        self.shard = (num_shards > 1).then_some((shard, num_shards));
        self
    }

    fn holds(&self, key: &Key) -> bool {
        match self.shard {
            Some((shard, num_shards)) => shard_for_key(key, num_shards) == shard,
            None => true,
        }
    }

    pub fn read(&mut self, key: &Key, ts: Timestamp) -> ReadResult {
        self.rts.entry(key.clone()).or_default().insert(ts);
        self.read_without_rts(key, ts)
    }

    pub fn read_without_rts(&self, key: &Key, ts: Timestamp) -> ReadResult {
        let committed = self.committed_versions.get(key).and_then(|versions| {
            versions
                .range(..ts)
                .next_back()
                .map(|(version, (txid, value))| CommittedVersion {
                    version: *version,
                    value: value.clone(),
                    txid: *txid,
                })
        });
        let prepared = self.prepared_writes.get(key).and_then(|versions| {
            versions
                .range(..ts)
                .next_back()
                .and_then(|(version, txid)| {
                    self.prepared_txs.get(txid).map(|tx| PreparedVersion {
                        version: *version,
                        txid: *txid,
                        tx: Arc::clone(tx),
                    })
                })
        });
        ReadResult {
            committed,
            prepared,
        }
    }

    pub fn latest_committed(&self, key: &Key) -> Option<(Timestamp, Value)> {
        self.committed_versions.get(key).and_then(|versions| {
            versions
                .iter()
                .next_back()
                .map(|(ts, (_, value))| (*ts, value.clone()))
        })
    }

    pub fn prepare(
        &mut self,
        tx: &Arc<Transaction>,
        local_clock: SimTime,
        delta: Duration,
    ) -> CheckOutcome {
        let txid = tx.id();

        if let Some(decision) = self.decisions.get(&txid) {
            return CheckOutcome::Decided(match decision {
                Decision::Commit => Vote::Commit,
                Decision::Abort => Vote::Abort(AbortReason::Conflict),
            });
        }
        if let Some(missing) = self.pending.get(&txid) {
            return CheckOutcome::Pending {
                waiting_on: missing.iter().copied().collect(),
            };
        }
        if self.prepared_txs.contains_key(&txid) {
            return CheckOutcome::Decided(Vote::Commit);
        }

        if tx.timestamp().exceeds_bound(local_clock, delta) {
            return CheckOutcome::Decided(Vote::Abort(AbortReason::TimestampOutOfBounds));
        }
        if self.gc_watermark > Timestamp::ZERO && tx.timestamp() <= self.gc_watermark {
            return CheckOutcome::Decided(Vote::Abort(AbortReason::TimestampOutOfBounds));
        }

        for dep in tx.deps().iter().filter(|dep| self.holds(&dep.key)) {
            let known = self
                .prepared_txs
                .get(&dep.txid)
                .or_else(|| self.committed_txs.get(&dep.txid));
            if let Some(dep_tx) = known {
                let produced = dep_tx.writes(&dep.key) && dep_tx.timestamp() == dep.version;
                if !produced {
                    return CheckOutcome::Decided(Vote::Abort(AbortReason::InvalidDependency));
                }
            } else if self.aborted.contains(&dep.txid) {
                return CheckOutcome::Decided(Vote::Abort(AbortReason::DependencyAborted));
            }
        }

        for read in tx.read_set() {
            if read.version > tx.timestamp() {
                return CheckOutcome::Decided(Vote::Abort(AbortReason::Misbehavior));
            }
        }

        for read in tx.read_set() {
            if self.has_write_in_range(&read.key, read.version, tx.timestamp()) {
                return CheckOutcome::Decided(Vote::Abort(AbortReason::Conflict));
            }
        }

        for write in tx.write_set() {
            if self.write_invalidates_reader(&write.key, tx.timestamp()) {
                return CheckOutcome::Decided(Vote::Abort(AbortReason::Conflict));
            }
        }

        for write in tx.write_set() {
            if let Some(set) = self.rts.get(&write.key) {
                if set
                    .range((
                        std::ops::Bound::Excluded(tx.timestamp()),
                        std::ops::Bound::Unbounded,
                    ))
                    .next()
                    .is_some()
                {
                    return CheckOutcome::Decided(Vote::Abort(AbortReason::Conflict));
                }
            }
        }

        self.index_prepared(txid, tx);

        let mut missing: FastHashSet<TxId> = FastHashSet::default();
        for dep in tx.deps().iter().filter(|dep| self.holds(&dep.key)) {
            match self.decisions.get(&dep.txid) {
                Some(Decision::Commit) => {}
                Some(Decision::Abort) => {
                    self.unindex_prepared(&txid);
                    return CheckOutcome::Decided(Vote::Abort(AbortReason::DependencyAborted));
                }
                None => {
                    missing.insert(dep.txid);
                }
            }
        }
        if missing.is_empty() {
            return CheckOutcome::Decided(Vote::Commit);
        }
        for dep in &missing {
            self.waiters.entry(*dep).or_default().push(txid);
        }
        let waiting_on: Vec<TxId> = missing.iter().copied().collect();
        self.pending.insert(txid, missing);
        CheckOutcome::Pending { waiting_on }
    }

    fn has_write_in_range(&self, key: &Key, lower: Timestamp, upper: Timestamp) -> bool {
        // A read of a version at the reader's own timestamp (an equivocating
        // client's twin) leaves an empty window, which `BTreeMap::range`
        // refuses to take.
        if lower == upper {
            return false;
        }
        let in_committed = self
            .committed_versions
            .get(key)
            .map(|versions| {
                versions
                    .range((
                        std::ops::Bound::Excluded(lower),
                        std::ops::Bound::Excluded(upper),
                    ))
                    .next()
                    .is_some()
            })
            .unwrap_or(false);
        if in_committed {
            return true;
        }
        self.prepared_writes
            .get(key)
            .map(|versions| {
                versions
                    .range((
                        std::ops::Bound::Excluded(lower),
                        std::ops::Bound::Excluded(upper),
                    ))
                    .next()
                    .is_some()
            })
            .unwrap_or(false)
    }

    fn write_invalidates_reader(&self, key: &Key, write_ts: Timestamp) -> bool {
        let check = |reads: &BTreeMap<Timestamp, Timestamp>| {
            reads
                .range((
                    std::ops::Bound::Excluded(write_ts),
                    std::ops::Bound::Unbounded,
                ))
                .any(|(_, version_read)| *version_read < write_ts)
        };
        let committed_hit = self.committed_reads.get(key).map(&check).unwrap_or(false);
        if committed_hit {
            return true;
        }
        self.prepared_reads.get(key).map(&check).unwrap_or(false)
    }

    fn index_prepared(&mut self, txid: TxId, tx: &Arc<Transaction>) {
        for write in tx.write_set() {
            self.prepared_writes
                .entry(write.key.clone())
                .or_default()
                .insert(tx.timestamp(), txid);
        }
        for read in tx.read_set() {
            self.prepared_reads
                .entry(read.key.clone())
                .or_default()
                .insert(tx.timestamp(), read.version);
        }
        self.prepared_txs.insert(txid, Arc::clone(tx));
    }

    fn unindex_prepared(&mut self, txid: &TxId) -> Option<Arc<Transaction>> {
        if let Some(tx) = self.prepared_txs.remove(txid) {
            for write in tx.write_set() {
                if let Some(map) = self.prepared_writes.get_mut(&write.key) {
                    map.remove(&tx.timestamp());
                    if map.is_empty() {
                        self.prepared_writes.remove(&write.key);
                    }
                }
            }
            for read in tx.read_set() {
                if let Some(map) = self.prepared_reads.get_mut(&read.key) {
                    map.remove(&tx.timestamp());
                    if map.is_empty() {
                        self.prepared_reads.remove(&read.key);
                    }
                }
            }
            Some(tx)
        } else {
            None
        }
    }

    pub fn commit(&mut self, tx: &Arc<Transaction>) -> Vec<(TxId, Vote)> {
        let txid = tx.id();
        if matches!(self.decisions.get(&txid), Some(Decision::Commit)) {
            return Vec::new();
        }
        let shared = self
            .unindex_prepared(&txid)
            .unwrap_or_else(|| Arc::clone(tx));
        self.pending.remove(&txid);
        self.decisions.insert(txid, Decision::Commit);

        for write in tx.write_set() {
            self.committed_versions
                .entry(write.key.clone())
                .or_default()
                .insert(tx.timestamp(), (txid, write.value.clone()));
        }
        for read in tx.read_set() {
            self.committed_reads
                .entry(read.key.clone())
                .or_default()
                .insert(tx.timestamp(), read.version);
        }
        self.committed_txs.insert(txid, shared);

        self.wake_waiters(txid, Decision::Commit)
    }

    pub fn abort(&mut self, txid: TxId) -> Vec<(TxId, Vote)> {
        if matches!(self.decisions.get(&txid), Some(Decision::Abort)) {
            return Vec::new();
        }
        self.unindex_prepared(&txid);
        self.pending.remove(&txid);
        self.decisions.insert(txid, Decision::Abort);
        self.aborted.insert(txid);
        self.wake_waiters(txid, Decision::Abort)
    }

    fn wake_waiters(&mut self, resolved: TxId, decision: Decision) -> Vec<(TxId, Vote)> {
        let mut released = Vec::new();
        let Some(waiters) = self.waiters.remove(&resolved) else {
            return released;
        };
        for waiter in waiters {
            let Some(missing) = self.pending.get_mut(&waiter) else {
                continue;
            };
            match decision {
                Decision::Abort => {
                    self.pending.remove(&waiter);
                    self.unindex_prepared(&waiter);
                    released.push((waiter, Vote::Abort(AbortReason::DependencyAborted)));
                }
                Decision::Commit => {
                    missing.remove(&resolved);
                    if missing.is_empty() {
                        self.pending.remove(&waiter);
                        released.push((waiter, Vote::Commit));
                    }
                }
            }
        }
        released
    }

    pub fn decision(&self, txid: &TxId) -> Option<Decision> {
        self.decisions.get(txid).copied()
    }

    pub fn committed_ids(&self) -> BTreeSet<TxId> {
        self.committed_txs.keys().copied().collect()
    }

    pub fn is_prepared(&self, txid: &TxId) -> bool {
        self.prepared_txs.contains_key(txid)
    }

    pub fn is_pending(&self, txid: &TxId) -> bool {
        self.pending.contains_key(txid)
    }

    pub fn gc_before(&mut self, watermark: Timestamp) {
        self.gc_watermark = self.gc_watermark.max(watermark);
        for versions in self.committed_versions.values_mut() {
            if let Some(keep_from) = versions.range(..=watermark).next_back().map(|(ts, _)| *ts) {
                *versions = versions.split_off(&keep_from);
            }
        }
        for reads in self.committed_reads.values_mut() {
            *reads = reads.split_off(&watermark);
        }
        for set in self.rts.values_mut() {
            *set = set.split_off(&watermark);
        }
        self.rts.retain(|_, set| !set.is_empty());
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::tx::TransactionBuilder;
    use crate::MvtsoStore;
    use basil_common::ClientId;
    use proptest::prelude::*;

    const DELTA: Duration = Duration::from_millis(100);
    const CLOCK: SimTime = SimTime::from_secs(4);
    /// The first [`PRELOADED`] keys carry a genesis version, which GC always
    /// retains; the records of the others drain to nothing and are released.
    const KEYS: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];
    const PRELOADED: usize = 4;

    fn key(i: u64) -> Key {
        Key::new(KEYS[(i as usize) % KEYS.len()])
    }

    fn ts(t: u64, c: u64) -> Timestamp {
        Timestamp::from_nanos(t % 4_000, ClientId(c % 8))
    }

    /// One raw op descriptor: interpreted against the running history so
    /// commits/aborts/dependencies target previously issued transactions.
    type RawOp = (u8, u64, u64, u64, u64, u64);

    fn sorted_outcome(outcome: CheckOutcome) -> CheckOutcome {
        match outcome {
            CheckOutcome::Pending { mut waiting_on } => {
                waiting_on.sort_unstable();
                CheckOutcome::Pending { waiting_on }
            }
            decided => decided,
        }
    }

    /// Interprets a raw op against both stores, placed on shard `shard` of
    /// `num_shards`, and asserts every observable matches. Returns `Err`
    /// (via prop_assert) on divergence.
    fn run_history(ops: Vec<RawOp>, shard: u32, num_shards: u32) -> Result<(), TestCaseError> {
        let initial: Vec<(Key, Value)> = KEYS[..PRELOADED]
            .iter()
            .map(|k| (Key::new(*k), Value::from_u64(0)))
            .collect();
        let shard = ShardId(shard % num_shards);
        let mut flat = MvtsoStore::with_initial_data(initial.clone()).for_shard(shard, num_shards);
        let mut reference = ReferenceStore::with_initial_data(initial).for_shard(shard, num_shards);
        let mut issued: Vec<Arc<Transaction>> = Vec::new();

        for (kind, a, b, c, d, e) in ops {
            match kind % 8 {
                // Prepare a fresh transaction: 0-2 reads, 0-2 writes, with
                // read versions drawn from {what is visible, ZERO, arbitrary}
                // and occasionally a declared dependency on an issued tx.
                // One in eight equivocates: it reuses the timestamp of an
                // issued transaction, whose per-key entries it then shares.
                0..=3 => {
                    let t = match issued.get((b as usize) % (issued.len() + 1)) {
                        Some(earlier) if a % 8 == 0 => earlier.timestamp(),
                        _ => ts(a, b),
                    };
                    let mut builder = TransactionBuilder::new(t);
                    let reads = (c % 3) as usize;
                    let writes = (d % 3) as usize;
                    for i in 0..reads {
                        let k = key(c.wrapping_add(i as u64));
                        match e.wrapping_add(i as u64) % 4 {
                            // Read what is actually visible; if it is a
                            // prepared version, declare the dependency.
                            0 | 1 => {
                                let visible = flat.read_without_rts(&k, t);
                                let newest_prepared = visible
                                    .prepared
                                    .as_ref()
                                    .map(|p| p.version)
                                    .unwrap_or(Timestamp::ZERO);
                                match visible.prepared {
                                    Some(p)
                                        if newest_prepared
                                            >= visible
                                                .committed
                                                .as_ref()
                                                .map(|cv| cv.version)
                                                .unwrap_or(Timestamp::ZERO) =>
                                    {
                                        builder.record_dependent_read(k, p.version, p.txid);
                                    }
                                    _ => {
                                        let version = visible
                                            .committed
                                            .map(|cv| cv.version)
                                            .unwrap_or(Timestamp::ZERO);
                                        builder.record_read(k, version);
                                    }
                                }
                            }
                            // Stale read of the genesis version.
                            2 => {
                                builder.record_read(k, Timestamp::ZERO);
                            }
                            // Arbitrary (possibly future / missing) version.
                            _ => {
                                builder.record_read(k, ts(e, c));
                            }
                        }
                    }
                    for i in 0..writes {
                        builder.record_write(
                            key(d.wrapping_add(i as u64)),
                            Value::from_u64(e.wrapping_add(i as u64)),
                        );
                    }
                    let tx = builder.build_shared();
                    let got = flat.prepare(&tx, CLOCK, DELTA);
                    let want = reference.prepare(&tx, CLOCK, DELTA);
                    prop_assert_eq!(sorted_outcome(got), sorted_outcome(want));
                    issued.push(tx);
                }
                // Commit an issued transaction.
                4 => {
                    if issued.is_empty() {
                        continue;
                    }
                    let tx = &issued[(a as usize) % issued.len()];
                    let got = flat.commit(tx);
                    let want = reference.commit(tx);
                    prop_assert_eq!(got, want);
                }
                // Abort an issued transaction.
                5 => {
                    if issued.is_empty() {
                        continue;
                    }
                    let txid = issued[(a as usize) % issued.len()].id();
                    let got = flat.abort(txid);
                    let want = reference.abort(txid);
                    prop_assert_eq!(got, want);
                }
                // Execution-phase read (registers an RTS).
                6 => {
                    let k = key(a);
                    let t = ts(b, c);
                    let got = flat.read(&k, t);
                    let want = reference.read(&k, t);
                    prop_assert_eq!(got, want);
                }
                // GC sweep at an arbitrary watermark: the RTS entries it
                // drops may leave whatever was prepared on a key holding
                // the record alone.
                _ => {
                    let watermark = ts(a, 0);
                    flat.gc_before(watermark);
                    reference.gc_before(watermark);
                }
            }
        }

        // Final-state agreement: the committed set, each transaction's
        // decision and prepared/pending state, committed values, visibility.
        let committed: BTreeSet<TxId> = flat.committed_iter().map(|tx| tx.id()).collect();
        prop_assert_eq!(committed, reference.committed_ids());
        for tx in &issued {
            let id = tx.id();
            prop_assert_eq!(flat.decision(&id), reference.decision(&id));
            prop_assert_eq!(flat.is_prepared(&id), reference.is_prepared(&id));
            prop_assert_eq!(flat.is_pending(&id), reference.is_pending(&id));
        }
        for k in KEYS {
            let k = Key::new(k);
            prop_assert_eq!(flat.latest_committed(&k), reference.latest_committed(&k));
            let probe = Timestamp::from_nanos(u64::MAX, ClientId(0));
            prop_assert_eq!(
                flat.read_without_rts(&k, probe),
                reference.read_without_rts(&k, probe)
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        /// Random interleavings of prepare/commit/abort/read/GC make
        /// bit-identical decisions on the flattened store and the
        /// nested-`BTreeMap` reference, on an unsharded deployment and on one
        /// shard of two or three (where dependencies on the other shards'
        /// keys are skipped).
        #[test]
        fn flattened_store_matches_btreemap_reference(
            ops in proptest::collection::vec(
                (0u8..=255, 0u64..=u64::MAX, 0u64..=u64::MAX,
                 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
                1..48,
            ),
            shard in 0u32..3,
            num_shards in 1u32..=3,
        ) {
            run_history(ops, shard, num_shards)?;
        }
    }
}
