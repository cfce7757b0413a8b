//! The per-replica MVTSO storage engine and the concurrency-control check of
//! Algorithm 1.
//!
//! Each Basil replica holds one [`MvtsoStore`] for its shard's key range. The
//! store tracks, per key, one flat `KeyRecord`:
//!
//! * the chain of **committed** versions,
//! * the **prepared** (visible but uncommitted) writes of transactions that
//!   passed the concurrency-control check,
//! * the read timestamps (**RTS**) left behind by execution-phase reads, and
//! * the reads performed by prepared and committed transactions.
//!
//! All four indexes are timestamp-sorted [`VersionArray`]s (flat runs, the
//! first entry inline, append-mostly) rather than per-key `BTreeMap`s, and
//! every record carries two watermarks — the largest write timestamp and the
//! largest read timestamp currently present. The watermarks let
//! [`MvtsoStore::prepare`] answer the common no-conflict case with two
//! integer comparisons per key and no scan at all; they are kept exact (any
//! removal that could lower a watermark recomputes it from the array tails
//! in `O(1)`).
//! [`MvtsoStore::stats`] reports the fast-path hit rate. See
//! `docs/ARCHITECTURE.md` ("Store layout & conflict windows").
//!
//! [`MvtsoStore::prepare`] implements Algorithm 1 of the paper. Step 7 of the
//! algorithm ("wait for all pending dependencies") is realised without
//! blocking: if some dependencies of the transaction have no decision yet the
//! check returns [`CheckOutcome::Pending`], and the replica defers its vote
//! until [`MvtsoStore::commit`] / [`MvtsoStore::abort`] of the dependencies
//! release it (the returned wake-ups carry the final vote).
//!
//! One deviation from the paper's text is documented inline: a dependency the
//! replica has *never heard of* (its `ST1` has not arrived, e.g. due to
//! message reordering) is treated as pending rather than invalid, which
//! avoids spurious aborts during fault-free executions while preserving
//! safety (the vote is still withheld until the dependency's fate is known).

use crate::tx::Transaction;
use crate::varray::VersionArray;
use basil_common::error::AbortReason;
use basil_common::{Duration, FastHashMap, FastHashSet, Key, SimTime, Timestamp, TxId, Value};
use std::sync::Arc;

/// A replica's vote on whether committing a transaction preserves
/// serializability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vote {
    /// The transaction may commit.
    Commit,
    /// The transaction must abort, for the given reason.
    Abort(AbortReason),
}

impl Vote {
    /// True for [`Vote::Commit`].
    pub fn is_commit(&self) -> bool {
        matches!(self, Vote::Commit)
    }
}

/// Result of running the concurrency-control check for a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The vote is known immediately.
    Decided(Vote),
    /// The transaction is prepared, but the vote is withheld until every
    /// listed dependency reaches a decision on this replica.
    Pending {
        /// Dependencies whose decision this replica has not yet learned.
        waiting_on: Vec<TxId>,
    },
}

/// The final, durable decision for a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Decision {
    /// The transaction committed.
    Commit,
    /// The transaction aborted.
    Abort,
}

/// The latest committed version of a key visible to a given timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommittedVersion {
    /// Timestamp of the transaction that wrote the version.
    pub version: Timestamp,
    /// The value written.
    pub value: Value,
    /// Identifier of the writing transaction.
    pub txid: TxId,
}

/// The latest prepared (uncommitted) version of a key visible to a timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedVersion {
    /// Timestamp of the preparing transaction.
    pub version: Timestamp,
    /// Identifier of the preparing transaction.
    pub txid: TxId,
    /// The preparing transaction itself, shared with the store: the value
    /// it intends to write, and its own dependency set (`Dep_T'`), which the
    /// reader needs in order to understand what must commit before its
    /// dependency can.
    pub tx: Arc<Transaction>,
}

/// Reply to a versioned read: the newest committed and newest prepared
/// versions with timestamps strictly smaller than the reader's timestamp.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadResult {
    /// Newest committed version visible to the reader, if any.
    pub committed: Option<CommittedVersion>,
    /// Newest prepared version visible to the reader, if any.
    pub prepared: Option<PreparedVersion>,
}

/// Counters for the scan-free prepare fast path (see module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Prepare calls that ran the full concurrency-control pipeline (i.e.
    /// were not answered from the duplicate-delivery memo).
    pub prepares: u64,
    /// Per-key conflict checks answered by the watermark comparison alone.
    pub fast_path_checks: u64,
    /// Per-key conflict checks that fell past the watermark to the ordered
    /// scans (the slow path).
    pub slow_path_checks: u64,
}

impl StoreStats {
    /// Fraction of per-key checks answered without a scan (1.0 when no
    /// checks ran yet).
    pub fn fast_path_hit_rate(&self) -> f64 {
        let total = self.fast_path_checks + self.slow_path_checks;
        if total == 0 {
            return 1.0;
        }
        self.fast_path_checks as f64 / total as f64
    }

    /// Adds another store's counters into this one (harness aggregation).
    pub fn merge(&mut self, other: &StoreStats) {
        self.prepares += other.prepares;
        self.fast_path_checks += other.fast_path_checks;
        self.slow_path_checks += other.slow_path_checks;
    }
}

/// All concurrency-control state of one key, flattened into a single record
/// (one cache-friendly map lookup per key per check instead of five).
#[derive(Debug, Default)]
struct KeyRecord {
    /// Committed versions, sorted by writer timestamp.
    committed: VersionArray<(TxId, Value)>,
    /// Prepared (visible, uncommitted) writes, sorted by writer timestamp.
    prepared: VersionArray<TxId>,
    /// Reads of committed transactions: reader timestamp -> version read.
    committed_reads: VersionArray<Timestamp>,
    /// Reads of prepared transactions: reader timestamp -> version read.
    prepared_reads: VersionArray<Timestamp>,
    /// Read timestamps left by execution-phase reads (set semantics).
    rts: VersionArray<()>,
    /// Largest committed-or-prepared write timestamp present.
    max_write: Timestamp,
    /// Largest read timestamp present across committed reads, prepared
    /// reads, and RTS entries.
    max_read: Timestamp,
    /// How many slot references prepared transactions hold on this record
    /// (one per read-set and per write-set entry; see [`Prepared`]). A pinned
    /// record is never [`KeyRecord::is_unused`], so its arena slot cannot be
    /// recycled under the transaction that saved it.
    pins: u32,
}

impl KeyRecord {
    /// Records a write at `ts` into the watermarks.
    fn note_write(&mut self, ts: Timestamp) {
        if ts > self.max_write {
            self.max_write = ts;
        }
    }

    /// Records a read at `ts` into the watermarks.
    fn note_read(&mut self, ts: Timestamp) {
        if ts > self.max_read {
            self.max_read = ts;
        }
    }

    /// Recomputes the write watermark from the array tails (`O(1)`), after a
    /// removal that may have lowered it.
    fn refresh_write_watermark(&mut self) {
        self.max_write = self
            .committed
            .max_ts()
            .into_iter()
            .chain(self.prepared.max_ts())
            .max()
            .unwrap_or(Timestamp::ZERO);
    }

    /// True when every index is empty and no prepared transaction holds the
    /// slot: the record carries no state a fresh `KeyRecord::default()` would
    /// not, so it can be dropped from the map.
    ///
    /// A prepared transaction normally shows up in `prepared` or
    /// `prepared_reads`, but two transactions prepared at one timestamp (an
    /// equivocating client) share a single array entry, and withdrawing one
    /// removes it for both — hence the explicit `pins` count.
    fn is_unused(&self) -> bool {
        self.pins == 0
            && self.committed.is_empty()
            && self.prepared.is_empty()
            && self.committed_reads.is_empty()
            && self.prepared_reads.is_empty()
            && self.rts.is_empty()
    }

    /// Recomputes the read watermark from the array tails (`O(1)`), after a
    /// removal that may have lowered it.
    fn refresh_read_watermark(&mut self) {
        self.max_read = self
            .committed_reads
            .max_ts()
            .into_iter()
            .chain(self.prepared_reads.max_ts())
            .chain(self.rts.max_ts())
            .max()
            .unwrap_or(Timestamp::ZERO);
    }
}

/// A prepared (visible, uncommitted) transaction together with the arena
/// slots [`MvtsoStore::prepare`] resolved for its keys, so that the decision
/// indexes `key_records` directly instead of looking every key up again.
///
/// **Slot-pinning invariant.** Every slot listed here was counted into its
/// record's `pins` when the entry was created and is counted out exactly
/// once, by whichever of commit, abort or withdrawal consumes the entry. A
/// record with `pins > 0` is not `is_unused`, and `is_unused` is the only
/// condition under which `release_key` is called (from `gc_before`), so between prepare and decision a saved slot always names
/// the record of the same key.
#[derive(Debug)]
struct Prepared {
    tx: Arc<Transaction>,
    /// One slot per read-set entry, then one per write-set entry, in order.
    slots: Box<[u32]>,
}

/// Everything the store knows about one transaction, in one entry.
#[derive(Debug)]
enum TxState {
    /// Visible to reads; the vote is withheld (*pending*) while the set of
    /// dependencies with no decision here yet is non-empty.
    Prepared(Prepared, FastHashSet<TxId>),
    Committed(Arc<Transaction>),
    /// An abort after a commit (only an equivocating certificate pair causes
    /// one) keeps the metadata: the audit and check (2) still see it.
    Aborted(Option<Arc<Transaction>>),
}

/// The multiversioned store of a single replica.
///
/// Per-key state lives in one `Key -> KeyRecord` map; per-transaction state
/// in one `TxId -> TxState` map plus the reverse dependency index. Both
/// key kinds are uniform and attacker-independent ([`Key`]s are short
/// workload strings, [`TxId`]s SHA-256 digests), so the maps use
/// `basil_common::fasthash` instead of SipHash (see that module for the
/// threat-model note).
#[derive(Debug, Default)]
pub struct MvtsoStore {
    /// Per-key records live in an **arena**: the hash table maps a key to a
    /// `u32` slot in `key_records`, and freed slots are recycled through
    /// `free_records`. Storing ~160-byte records inline in the table made
    /// every probe, insert, and rehash drag whole records through the cache
    /// (measured ~1 µs per map operation on the 96-client bench's ~50k-key
    /// working set); with 4-byte values the table stays small and hot, the
    /// records are reached by direct indexing, and — because an index,
    /// unlike a map entry reference, can be *saved* — a transaction's keys
    /// are resolved once, by its prepare, and the slots serve the conflict
    /// check, the prepared-index insert and the later commit or abort (see
    /// [`Prepared`]). A [`Key`] carries its hash, so a probe or a rehash of
    /// this table never touches the key's string.
    key_index: FastHashMap<Key, u32>,
    /// The record arena (`key_index` values point here).
    key_records: Vec<KeyRecord>,
    /// Recycled arena slots (records released by GC).
    free_records: Vec<u32>,
    /// Scratch: the arena slots the running prepare has resolved, read set
    /// first, then write set (`NO_SLOT` = key unknown at check time). Reused
    /// across calls so that a prepare that votes abort allocates nothing;
    /// never observable state.
    scratch_slots: Vec<u32>,
    /// Each transaction this replica prepared or learned the fate of, its
    /// metadata `Arc`-shared with the message that delivered it.
    txs: FastHashMap<TxId, TxState>,
    /// Reverse index: dependency -> transactions waiting on it.
    waiters: FastHashMap<TxId, Vec<TxId>>,
    /// Highest watermark any [`MvtsoStore::gc_before`] sweep has used.
    /// Conflict evidence at or below it is gone, so prepares timestamped
    /// there must be refused (see the GC floor in `prepare`).
    gc_watermark: Timestamp,
    /// Fast-path counters.
    stats: StoreStats,
}

/// Sentinel for "key had no record when the check pass resolved it".
const NO_SLOT: u32 = u32::MAX;

impl MvtsoStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The record of `key`, if one exists.
    fn key_rec(&self, key: &Key) -> Option<&KeyRecord> {
        self.key_index
            .get(key)
            .map(|i| &self.key_records[*i as usize])
    }

    /// The arena slot of `key`, creating an empty record if needed.
    fn intern_key(&mut self, key: &Key) -> u32 {
        if let Some(idx) = self.key_index.get(key) {
            return *idx;
        }
        let idx = match self.free_records.pop() {
            Some(free) => free,
            None => {
                let idx = u32::try_from(self.key_records.len()).expect("fewer than 2^32 keys");
                assert!(idx != NO_SLOT, "key arena exhausted");
                self.key_records.push(KeyRecord::default());
                idx
            }
        };
        self.key_index.insert(key.clone(), idx);
        idx
    }

    /// Drops `key`'s (empty) record: the slot is reset and recycled.
    fn release_key(&mut self, key: &Key, idx: u32) {
        self.key_index.remove(key);
        self.key_records[idx as usize] = KeyRecord::default();
        self.free_records.push(idx);
    }

    /// Creates a store preloaded with initial data. The initial versions are
    /// committed at [`Timestamp::ZERO`] by a synthetic "genesis" transaction.
    pub fn with_initial_data(data: impl IntoIterator<Item = (Key, Value)>) -> Self {
        let mut store = Self::new();
        for (key, value) in data {
            store.load_initial(key, value);
        }
        store
    }

    /// Loads one more initial key (same semantics as
    /// [`MvtsoStore::with_initial_data`]).
    pub fn load_initial(&mut self, key: Key, value: Value) {
        let idx = self.intern_key(&key);
        let rec = &mut self.key_records[idx as usize];
        rec.committed
            .insert(Timestamp::ZERO, (TxId::default(), value));
        rec.note_write(Timestamp::ZERO);
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Serves a versioned read at timestamp `ts` and records `ts` in the
    /// key's RTS set (Section 4.1, replica read logic step 2).
    pub fn read(&mut self, key: &Key, ts: Timestamp) -> ReadResult {
        let idx = self.intern_key(key);
        let rec = &mut self.key_records[idx as usize];
        rec.rts.insert(ts, ());
        rec.note_read(ts);
        self.read_at_slot(idx, ts)
    }

    /// Serves a versioned read without registering an RTS: a look at what
    /// a read would return that leaves no trace. No replica path calls it;
    /// tests, the store benchmark and the reference model's comparison do.
    pub fn read_without_rts(&self, key: &Key, ts: Timestamp) -> ReadResult {
        match self.key_index.get(key) {
            Some(idx) => self.read_at_slot(*idx, ts),
            None => ReadResult::default(),
        }
    }

    /// The versioned-read logic against an already-resolved arena slot (so
    /// `read` pays one key lookup, not two).
    fn read_at_slot(&self, idx: u32, ts: Timestamp) -> ReadResult {
        let rec = &self.key_records[idx as usize];
        let committed = rec
            .committed
            .latest_before(ts)
            .map(|(version, (txid, value))| CommittedVersion {
                version: *version,
                value: value.clone(),
                txid: *txid,
            });
        let prepared = rec.prepared.latest_before(ts).and_then(|(version, txid)| {
            self.prepared_tx(txid).map(|tx| PreparedVersion {
                version: *version,
                txid: *txid,
                tx: Arc::clone(tx),
            })
        });
        ReadResult {
            committed,
            prepared,
        }
    }

    /// The newest committed value of a key (used by examples and tests to
    /// inspect final state).
    pub fn latest_committed(&self, key: &Key) -> Option<(Timestamp, Value)> {
        self.key_rec(key)
            .and_then(|rec| rec.committed.last())
            .map(|(ts, (_, value))| (*ts, value.clone()))
    }

    // ------------------------------------------------------------------
    // Algorithm 1: the concurrency-control check
    // ------------------------------------------------------------------

    /// Runs the MVTSO concurrency-control check (Algorithm 1) for `tx`.
    ///
    /// `local_clock` and `delta` implement the timestamp acceptance window of
    /// lines 1-2. On success the transaction is added to the prepared set and
    /// becomes visible to subsequent reads. The transaction arrives as the
    /// `Arc` the `ST1` message carries, so indexing it shares the allocation
    /// instead of deep-copying the read/write sets per prepare.
    ///
    /// The per-key conflict checks first consult the record watermarks (see
    /// module docs): a read that observed the key's newest write and a write
    /// above the key's newest read pass with two integer comparisons. Only
    /// keys whose conflict window is non-trivially populated fall through to
    /// the ordered binary-search scans, whose verdicts are bit-identical to
    /// the original nested-`BTreeMap` implementation (property-tested in
    /// `reference.rs`).
    pub fn prepare(
        &mut self,
        tx: &Arc<Transaction>,
        local_clock: SimTime,
        delta: Duration,
    ) -> CheckOutcome {
        let txid = tx.id();

        // A known transaction keeps its fate; a re-delivered prepare reports
        // what it still waits on, or its commit vote.
        if let Some(state) = self.txs.get(&txid) {
            return match state {
                TxState::Aborted(_) => CheckOutcome::Decided(Vote::Abort(AbortReason::Conflict)),
                TxState::Prepared(_, missing) if !missing.is_empty() => CheckOutcome::Pending {
                    waiting_on: missing.iter().copied().collect(),
                },
                _ => CheckOutcome::Decided(Vote::Commit),
            };
        }

        self.stats.prepares += 1;

        // (1) Timestamp bound: ts_T <= localClock + delta.
        if tx.timestamp().exceeds_bound(local_clock, delta) {
            return CheckOutcome::Decided(Vote::Abort(AbortReason::TimestampOutOfBounds));
        }

        // (1b) GC floor: read records and superseded versions at or below the
        // GC watermark have been discarded, so the checks below could no
        // longer see a conflict there. A transaction backdated into that
        // region must abort — otherwise a Byzantine (or badly skewed) client
        // could commit a write under a collected reader, a serializability
        // violation rather than the liveness trade GC is allowed to make.
        if self.gc_watermark > Timestamp::ZERO && tx.timestamp() <= self.gc_watermark {
            return CheckOutcome::Decided(Vote::Abort(AbortReason::TimestampOutOfBounds));
        }

        // (2) Dependency validity: every dependency this replica knows about
        // must actually have produced the claimed version.
        for dep in tx.deps() {
            let dep_tx = match self.txs.get(&dep.txid) {
                Some(TxState::Prepared(prepared, _)) => &prepared.tx,
                Some(TxState::Committed(tx) | TxState::Aborted(Some(tx))) => tx,
                // The dependency aborted here and never committed; the
                // dependent cannot commit (Algorithm 1, lines 16-18).
                Some(TxState::Aborted(None)) => {
                    return CheckOutcome::Decided(Vote::Abort(AbortReason::DependencyAborted))
                }
                // Unknown dependency: treated as pending (see module docs).
                None => continue,
            };
            if !dep_tx.writes(&dep.key) || dep_tx.timestamp() != dep.version {
                return CheckOutcome::Decided(Vote::Abort(AbortReason::InvalidDependency));
            }
        }

        let ts = tx.timestamp();

        // (3) Reads must not claim versions from the future; that would prove
        // client misbehaviour. The builder froze the maximum claimed version,
        // so this is one comparison instead of a read-set walk.
        if tx.max_read_version() > ts {
            return CheckOutcome::Decided(Vote::Abort(AbortReason::Misbehavior));
        }

        // (4) Reads in T did not miss any committed or prepared write:
        // no write W to `key` with version_read < ts_W < ts_T may exist.
        // Fast path: the version read is the key's newest write overall.
        // Each key's arena slot is resolved once here and reused by the
        // prepared-index inserts below and by the decision later (one map
        // lookup per key per transaction).
        self.scratch_slots.clear();
        for read in tx.read_set() {
            let slot = self.key_index.get(&read.key).copied();
            self.scratch_slots.push(slot.unwrap_or(NO_SLOT));
            match slot.map(|i| &self.key_records[i as usize]) {
                Some(rec) if rec.max_write > read.version => {
                    self.stats.slow_path_checks += 1;
                    if rec.committed.any_in_open_range(read.version, ts)
                        || rec.prepared.any_in_open_range(read.version, ts)
                    {
                        return CheckOutcome::Decided(Vote::Abort(AbortReason::Conflict));
                    }
                }
                _ => self.stats.fast_path_checks += 1,
            }
        }

        // (5) Writes in T must not invalidate reads of prepared or committed
        // transactions: no reader T' with ts_T' > ts_T may have read a
        // version older than ts_T for a key T writes.
        // (6) Writes must not invalidate ongoing reads (RTS check).
        // Fast path for both: the write lands above the key's newest read.
        for write in tx.write_set() {
            let slot = self.key_index.get(&write.key).copied();
            self.scratch_slots.push(slot.unwrap_or(NO_SLOT));
            match slot.map(|i| &self.key_records[i as usize]) {
                Some(rec) if rec.max_read > ts => {
                    self.stats.slow_path_checks += 1;
                    let invalidates = |reads: &VersionArray<Timestamp>| {
                        reads
                            .iter_above(ts)
                            .any(|(_, version_read)| *version_read < ts)
                    };
                    if invalidates(&rec.committed_reads) || invalidates(&rec.prepared_reads) {
                        return CheckOutcome::Decided(Vote::Abort(AbortReason::Conflict));
                    }
                    if rec.rts.max_ts().map(|m| m > ts).unwrap_or(false) {
                        return CheckOutcome::Decided(Vote::Abort(AbortReason::Conflict));
                    }
                }
                _ => self.stats.fast_path_checks += 1,
            }
        }

        // (7) Prepared.add(T): make the transaction visible to future reads,
        // reusing the slots resolved by the checks (keys unseen there are
        // interned now), and keep the slots, pinned, with the entry.
        let mut slots = std::mem::take(&mut self.scratch_slots);
        let (read_slots, write_slots) = slots.split_at_mut(tx.read_set().len());
        for (write, slot) in tx.write_set().iter().zip(write_slots) {
            if *slot == NO_SLOT {
                *slot = self.intern_key(&write.key);
            }
            let rec = &mut self.key_records[*slot as usize];
            rec.pins += 1;
            rec.prepared.insert(ts, txid);
            rec.note_write(ts);
        }
        for (read, slot) in tx.read_set().iter().zip(read_slots) {
            if *slot == NO_SLOT {
                *slot = self.intern_key(&read.key);
            }
            let rec = &mut self.key_records[*slot as usize];
            rec.pins += 1;
            rec.prepared_reads.insert(ts, read.version);
            rec.note_read(ts);
        }
        let prepared = Prepared {
            tx: Arc::clone(tx),
            slots: slots.as_slice().into(),
        };
        self.scratch_slots = slots;

        // (8) Wait for all pending dependencies.
        let mut missing: FastHashSet<TxId> = FastHashSet::default();
        for dep in tx.deps() {
            match self.decision(&dep.txid) {
                Some(Decision::Commit) => {}
                Some(Decision::Abort) => {
                    // A dependency already aborted: withdraw the prepare.
                    self.unindex(&prepared);
                    return CheckOutcome::Decided(Vote::Abort(AbortReason::DependencyAborted));
                }
                None => {
                    missing.insert(dep.txid);
                }
            }
        }
        for dep in &missing {
            self.waiters.entry(*dep).or_default().push(txid);
        }
        let waiting_on: Vec<TxId> = missing.iter().copied().collect();
        self.txs.insert(txid, TxState::Prepared(prepared, missing));
        if waiting_on.is_empty() {
            return CheckOutcome::Decided(Vote::Commit);
        }
        CheckOutcome::Pending { waiting_on }
    }

    /// Removes a prepared transaction from the visibility indexes, through
    /// the slots its prepare saved, and unpins them. A watermark the entry
    /// held is recomputed (`O(1)` from the array tails), so the fast path
    /// stays exact rather than decaying conservatively.
    fn unindex(&mut self, prepared: &Prepared) {
        let ts = prepared.tx.timestamp();
        let (read_slots, write_slots) = prepared.slots.split_at(prepared.tx.read_set().len());
        for slot in write_slots {
            let rec = &mut self.key_records[*slot as usize];
            rec.pins -= 1;
            if rec.prepared.remove(ts).is_some() && ts == rec.max_write {
                rec.refresh_write_watermark();
            }
        }
        for slot in read_slots {
            let rec = &mut self.key_records[*slot as usize];
            rec.pins -= 1;
            if rec.prepared_reads.remove(ts).is_some() && ts == rec.max_read {
                rec.refresh_read_watermark();
            }
        }
    }

    // ------------------------------------------------------------------
    // Decisions
    // ------------------------------------------------------------------

    /// Applies a commit decision for `tx`: its writes become committed
    /// versions and its reads are recorded for future checks. Returns the
    /// votes of transactions whose deferred check was waiting on this
    /// decision.
    pub fn commit(&mut self, tx: &Arc<Transaction>) -> Vec<(TxId, Vote)> {
        let txid = tx.id();
        // The id is a content hash, so a prepared entry under it is this
        // transaction, its slots still its keys' records (nothing runs between
        // the unpinning and their use below). A commit that skipped the
        // prepare (writeback to a replica that missed ST1) interns its keys.
        // A repeated commit replaced the entry with an equal one.
        let slots = match self.txs.insert(txid, TxState::Committed(Arc::clone(tx))) {
            Some(TxState::Committed(_)) => return Vec::new(),
            Some(TxState::Prepared(prepared, _)) => {
                self.unindex(&prepared);
                prepared.slots
            }
            _ => {
                let reads = tx.read_set().iter().map(|r| &r.key);
                let writes = tx.write_set().iter().map(|w| &w.key);
                reads.chain(writes).map(|k| self.intern_key(k)).collect()
            }
        };

        let ts = tx.timestamp();
        let (read_slots, write_slots) = slots.split_at(tx.read_set().len());
        for (write, slot) in tx.write_set().iter().zip(write_slots) {
            let rec = &mut self.key_records[*slot as usize];
            rec.committed.insert(ts, (txid, write.value.clone()));
            rec.note_write(ts);
        }
        for (read, slot) in tx.read_set().iter().zip(read_slots) {
            let rec = &mut self.key_records[*slot as usize];
            rec.committed_reads.insert(ts, read.version);
            rec.note_read(ts);
        }

        self.wake_waiters(txid, Decision::Commit)
    }

    /// Applies an abort decision for `txid`. Returns the votes of
    /// transactions whose deferred check was waiting on this decision (each
    /// of them votes abort, per Algorithm 1 lines 16-18).
    pub fn abort(&mut self, txid: TxId) -> Vec<(TxId, Vote)> {
        let committed = match self.txs.get(&txid) {
            Some(TxState::Aborted(_)) => return Vec::new(),
            Some(TxState::Committed(tx)) => Some(Arc::clone(tx)),
            _ => None,
        };
        let prior = self.txs.insert(txid, TxState::Aborted(committed));
        if let Some(TxState::Prepared(prepared, _)) = prior {
            self.unindex(&prepared);
        }
        self.wake_waiters(txid, Decision::Abort)
    }

    fn wake_waiters(&mut self, resolved: TxId, decision: Decision) -> Vec<(TxId, Vote)> {
        let mut released = Vec::new();
        let Some(waiters) = self.waiters.remove(&resolved) else {
            return released;
        };
        for waiter in waiters {
            let missing = match self.txs.get_mut(&waiter) {
                Some(TxState::Prepared(_, missing)) if !missing.is_empty() => missing,
                _ => continue, // already resolved some other way
            };
            match decision {
                Decision::Abort => {
                    // The dependency aborted: the waiter votes abort and is
                    // withdrawn from the prepared set.
                    if let Some(TxState::Prepared(prepared, _)) = self.txs.remove(&waiter) {
                        self.unindex(&prepared);
                    }
                    released.push((waiter, Vote::Abort(AbortReason::DependencyAborted)));
                }
                Decision::Commit => {
                    missing.remove(&resolved);
                    if missing.is_empty() {
                        released.push((waiter, Vote::Commit));
                    }
                }
            }
        }
        released
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The metadata of `txid` while it is prepared.
    fn prepared_tx(&self, txid: &TxId) -> Option<&Arc<Transaction>> {
        match self.txs.get(txid)? {
            TxState::Prepared(prepared, _) => Some(&prepared.tx),
            _ => None,
        }
    }

    /// The decision this replica knows for `txid`, if any.
    pub fn decision(&self, txid: &TxId) -> Option<Decision> {
        match self.txs.get(txid)? {
            TxState::Prepared(..) => None,
            TxState::Committed(_) => Some(Decision::Commit),
            TxState::Aborted(_) => Some(Decision::Abort),
        }
    }

    /// Whether the transaction is currently prepared (visible, uncommitted).
    pub fn is_prepared(&self, txid: &TxId) -> bool {
        self.prepared_tx(txid).is_some()
    }

    /// Whether the transaction's vote is currently withheld waiting on
    /// dependencies.
    pub fn is_pending(&self, txid: &TxId) -> bool {
        matches!(self.txs.get(txid), Some(TxState::Prepared(_, missing)) if !missing.is_empty())
    }

    /// Iterates over all committed transactions without cloning them (the
    /// serializability audit borrows the history).
    pub fn committed_iter(&self) -> impl Iterator<Item = &Transaction> {
        self.txs.values().filter_map(|state| match state {
            TxState::Committed(tx) | TxState::Aborted(Some(tx)) => Some(tx.as_ref()),
            _ => None,
        })
    }

    /// Iterates over every final decision this replica knows, in arbitrary
    /// order. The real-IO runtime dumps these into per-process result files
    /// so the supervisor can run the cross-replica decision-agreement audit
    /// without reaching into live actors.
    pub fn decisions_iter(&self) -> impl Iterator<Item = (TxId, Decision)> + '_ {
        let decided = move |txid: &TxId| Some((*txid, self.decision(txid)?));
        self.txs.keys().filter_map(decided)
    }

    /// Number of committed transactions.
    pub fn committed_count(&self) -> usize {
        self.committed_iter().count()
    }

    /// Number of currently prepared transactions.
    pub fn prepared_count(&self) -> usize {
        let prepared = |state: &&TxState| matches!(state, TxState::Prepared(..));
        self.txs.values().filter(prepared).count()
    }

    /// The scan-free fast-path counters (see [`StoreStats`]).
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The `(max_write, max_read)` watermarks of a key's record (tests and
    /// diagnostics).
    pub fn key_watermarks(&self, key: &Key) -> Option<(Timestamp, Timestamp)> {
        self.key_rec(key).map(|rec| (rec.max_write, rec.max_read))
    }

    /// Garbage-collects bookkeeping that can no longer affect any future
    /// check: committed versions strictly older than the newest one at or
    /// below `watermark` (the newest such version must be retained because
    /// future readers may still need it), committed read records below the
    /// watermark, and RTS entries below the watermark.
    ///
    /// In the flattened layout each trim is an in-place prefix drain of a
    /// sorted `Vec` — no allocation, unlike the `BTreeMap::split_off` tail
    /// copies this replaces.
    pub fn gc_before(&mut self, watermark: Timestamp) {
        self.gc_watermark = self.gc_watermark.max(watermark);
        for idx in self.key_index.values() {
            let rec = &mut self.key_records[*idx as usize];
            let mut dropped = 0;
            if let Some(keep_from) = rec.committed.latest_at_or_below(watermark).map(|(t, _)| *t) {
                dropped += rec.committed.drop_below(keep_from);
            }
            dropped += rec.committed_reads.drop_below(watermark);
            dropped += rec.rts.drop_below(watermark);
            if dropped > 0 {
                // Prefix drains cannot raise the tails, but they can empty
                // an array entirely; recompute both watermarks exactly.
                rec.refresh_read_watermark();
                rec.refresh_write_watermark();
            }
        }
        // A fully drained record is semantically identical to an absent one;
        // dropping it (and recycling its arena slot) keeps the store bounded
        // by the keys that still carry state (reads of never-written keys
        // would otherwise pin a record forever).
        let drained: Vec<(Key, u32)> = self
            .key_index
            .iter()
            .filter(|(_, idx)| self.key_records[**idx as usize].is_unused())
            .map(|(key, idx)| (key.clone(), *idx))
            .collect();
        for (key, idx) in drained {
            self.release_key(&key, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::TransactionBuilder;
    use basil_common::ClientId;

    const DELTA: Duration = Duration::from_millis(100);
    // A clock far enough in the future that timestamp-bound checks pass by
    // default in these unit tests.
    const CLOCK: SimTime = SimTime::from_secs(1);

    fn ts(t: u64, c: u64) -> Timestamp {
        Timestamp::from_nanos(t, ClientId(c))
    }

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    fn store_with_xy() -> MvtsoStore {
        MvtsoStore::with_initial_data([(k("x"), v(0)), (k("y"), v(0))])
    }

    /// A transaction reading nothing and writing `key := val` at `t`.
    fn blind_write(t: u64, c: u64, key: &str, val: u64) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(ts(t, c));
        b.record_write(k(key), v(val));
        b.build_shared()
    }

    /// A read-modify-write transaction on one key.
    fn rmw(t: u64, c: u64, key: &str, read_version: Timestamp, val: u64) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(ts(t, c));
        b.record_read(k(key), read_version);
        b.record_write(k(key), v(val));
        b.build_shared()
    }

    /// A transaction at `t` whose one operation reads `w`'s write of x.
    fn reads_x_from(t: u64, c: u64, w: &Transaction) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(ts(t, c));
        b.record_dependent_read(k("x"), w.timestamp(), w.id());
        b.build_shared()
    }

    fn expect_commit(out: CheckOutcome) {
        assert_eq!(out, CheckOutcome::Decided(Vote::Commit));
    }

    fn expect_abort(out: CheckOutcome, reason: AbortReason) {
        assert_eq!(out, CheckOutcome::Decided(Vote::Abort(reason)));
    }

    #[test]
    fn read_returns_initial_version() {
        let mut store = store_with_xy();
        let r = store.read(&k("x"), ts(10, 1));
        let committed = r.committed.expect("initial version exists");
        assert_eq!(committed.version, Timestamp::ZERO);
        assert_eq!(committed.value, v(0));
        assert!(r.prepared.is_none());
        assert!(store.read(&k("unknown"), ts(10, 1)).committed.is_none());
    }

    #[test]
    fn prepare_and_commit_installs_version() {
        let mut store = store_with_xy();
        let t = blind_write(100, 1, "x", 42);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        assert!(store.is_prepared(&t.id()));

        // Visible as prepared to later readers, not as committed.
        let r = store.read(&k("x"), ts(200, 2));
        let prepared = r.prepared.as_ref().expect("prepared visible");
        assert_eq!(prepared.tx.written_value(&k("x")), Some(&v(42)));
        assert_eq!(r.committed.expect("initial").version, Timestamp::ZERO);

        let woken = store.commit(&t);
        assert!(woken.is_empty());
        assert!(!store.is_prepared(&t.id()));
        let r = store.read(&k("x"), ts(200, 2));
        assert_eq!(r.committed.expect("committed").value, v(42));
        assert!(r.prepared.is_none());
        assert_eq!(store.decision(&t.id()), Some(Decision::Commit));
    }

    #[test]
    fn read_ignores_versions_at_or_above_reader_timestamp() {
        let mut store = store_with_xy();
        let t = blind_write(100, 1, "x", 42);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        store.commit(&t);
        // A reader at exactly ts 100 must not see the version written at 100
        // (reads return versions strictly smaller than the reader timestamp).
        let r = store.read(&k("x"), ts(100, 0));
        assert_eq!(r.committed.expect("initial").version, Timestamp::ZERO);
        // A reader below 100 sees only the initial version.
        let r = store.read(&k("x"), ts(50, 2));
        assert_eq!(r.committed.expect("initial").version, Timestamp::ZERO);
    }

    #[test]
    fn timestamp_bound_rejected() {
        let mut store = store_with_xy();
        let t = blind_write(u64::MAX / 2, 1, "x", 1);
        expect_abort(
            store.prepare(&t, SimTime::from_millis(1), Duration::from_millis(1)),
            AbortReason::TimestampOutOfBounds,
        );
        assert!(!store.is_prepared(&t.id()));
    }

    #[test]
    fn read_from_future_is_misbehaviour() {
        let mut store = store_with_xy();
        let mut b = TransactionBuilder::new(ts(100, 1));
        b.record_read(k("x"), ts(500, 2)); // claims to have read the future
        let t = b.build_shared();
        expect_abort(store.prepare(&t, CLOCK, DELTA), AbortReason::Misbehavior);
    }

    #[test]
    fn stale_read_misses_committed_write_aborts() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.commit(&w);

        // T reads version 0 of x but has timestamp 200 > 100: it missed the
        // write at 100 and must abort (Algorithm 1 lines 7-8).
        let t = rmw(200, 2, "x", Timestamp::ZERO, 7);
        expect_abort(store.prepare(&t, CLOCK, DELTA), AbortReason::Conflict);
    }

    #[test]
    fn stale_read_misses_prepared_write_aborts() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA)); // prepared only

        let t = rmw(200, 2, "x", Timestamp::ZERO, 7);
        expect_abort(store.prepare(&t, CLOCK, DELTA), AbortReason::Conflict);
    }

    #[test]
    fn read_of_latest_version_commits() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.commit(&w);

        // Reader at 200 read the version written at 100: no missed write.
        let t = rmw(200, 2, "x", ts(100, 1), 7);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
    }

    #[test]
    fn late_write_under_committed_reader_aborts() {
        let mut store = store_with_xy();
        // Reader at ts 300 read version 0 of x, committed.
        let mut b = TransactionBuilder::new(ts(300, 1));
        b.record_read(k("x"), Timestamp::ZERO);
        b.record_write(k("dummy"), v(1));
        let reader = b.build_shared();
        expect_commit(store.prepare(&reader, CLOCK, DELTA));
        store.commit(&reader);

        // A writer at ts 200 < 300 writing x would invalidate that read
        // (the reader should have seen it): abort (lines 9-11).
        let w = blind_write(200, 2, "x", 9);
        expect_abort(store.prepare(&w, CLOCK, DELTA), AbortReason::Conflict);

        // A writer above the reader's timestamp is fine.
        let w2 = blind_write(400, 3, "x", 9);
        expect_commit(store.prepare(&w2, CLOCK, DELTA));
    }

    #[test]
    fn late_write_under_prepared_reader_aborts() {
        let mut store = store_with_xy();
        let mut b = TransactionBuilder::new(ts(300, 1));
        b.record_read(k("x"), Timestamp::ZERO);
        let reader = b.build_shared();
        expect_commit(store.prepare(&reader, CLOCK, DELTA)); // prepared only

        let w = blind_write(200, 2, "x", 9);
        expect_abort(store.prepare(&w, CLOCK, DELTA), AbortReason::Conflict);
    }

    #[test]
    fn rts_blocks_late_writer_and_clears_on_removal() {
        let mut store = store_with_xy();
        // An execution-phase read at ts 500 leaves an RTS on x.
        store.read(&k("x"), ts(500, 1));

        let w = blind_write(200, 2, "x", 9);
        expect_abort(store.prepare(&w, CLOCK, DELTA), AbortReason::Conflict);

        // GC removes the RTS and clears the read watermark; the GC bound,
        // not the RTS, now refuses a write under it.
        store.gc_before(ts(501, 0));
        assert_eq!(store.key_watermarks(&k("x")).unwrap().1, Timestamp::ZERO);
        let w2 = blind_write(201, 2, "x", 9);
        expect_abort(
            store.prepare(&w2, CLOCK, DELTA),
            AbortReason::TimestampOutOfBounds,
        );
        let w3 = blind_write(600, 2, "x", 9);
        expect_commit(store.prepare(&w3, CLOCK, DELTA));
    }

    #[test]
    fn rts_below_writer_timestamp_is_harmless() {
        let mut store = store_with_xy();
        store.read(&k("x"), ts(100, 1));
        let w = blind_write(200, 2, "x", 9);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
    }

    #[test]
    fn write_write_is_not_a_conflict_by_itself() {
        // MVTSO orders blind writes by timestamp; two writers of the same key
        // can both commit.
        let mut store = store_with_xy();
        let w1 = blind_write(100, 1, "x", 1);
        let w2 = blind_write(200, 2, "x", 2);
        expect_commit(store.prepare(&w1, CLOCK, DELTA));
        expect_commit(store.prepare(&w2, CLOCK, DELTA));
        store.commit(&w1);
        store.commit(&w2);
        assert_eq!(store.latest_committed(&k("x")).expect("x").1, v(2));
    }

    #[test]
    fn dependent_read_waits_for_dependency_commit() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA)); // prepared, not committed

        // T2 reads the prepared version and declares the dependency.
        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("x"), ts(100, 1), w.id());
        b.record_write(k("y"), v(6));
        let t2 = b.build_shared();

        match store.prepare(&t2, CLOCK, DELTA) {
            CheckOutcome::Pending { waiting_on } => assert_eq!(waiting_on, vec![w.id()]),
            other => panic!("expected pending, got {other:?}"),
        }
        assert!(store.is_pending(&t2.id()));
        assert!(
            store.is_prepared(&t2.id()),
            "pending transactions are visible"
        );

        // Committing the dependency releases T2 with a commit vote.
        let woken = store.commit(&w);
        assert_eq!(woken, vec![(t2.id(), Vote::Commit)]);
        assert!(!store.is_pending(&t2.id()));
    }

    #[test]
    fn dependent_read_aborts_when_dependency_aborts() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));

        let t2 = reads_x_from(200, 2, &w);
        assert!(matches!(
            store.prepare(&t2, CLOCK, DELTA),
            CheckOutcome::Pending { .. }
        ));

        let woken = store.abort(w.id());
        assert_eq!(
            woken,
            vec![(t2.id(), Vote::Abort(AbortReason::DependencyAborted))]
        );
        assert!(
            !store.is_prepared(&t2.id()),
            "aborted-by-dependency transactions leave the prepared set"
        );
    }

    #[test]
    fn dependency_already_committed_votes_immediately() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.commit(&w);

        let t2 = reads_x_from(200, 2, &w);
        expect_commit(store.prepare(&t2, CLOCK, DELTA));
    }

    #[test]
    fn dependency_already_aborted_votes_abort() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.abort(w.id());

        let t2 = reads_x_from(200, 2, &w);
        expect_abort(
            store.prepare(&t2, CLOCK, DELTA),
            AbortReason::DependencyAborted,
        );
    }

    #[test]
    fn invalid_dependency_claim_is_rejected() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));

        // Claim a dependency on w for key "y", which w never wrote.
        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("y"), ts(100, 1), w.id());
        let t2 = b.build_shared();
        expect_abort(
            store.prepare(&t2, CLOCK, DELTA),
            AbortReason::InvalidDependency,
        );

        // Claim a dependency with the wrong version timestamp.
        let mut b = TransactionBuilder::new(ts(200, 3));
        b.record_dependent_read(k("x"), ts(101, 1), w.id());
        let t3 = b.build_shared();
        expect_abort(
            store.prepare(&t3, CLOCK, DELTA),
            AbortReason::InvalidDependency,
        );
    }

    #[test]
    fn unknown_dependency_is_pending_not_invalid() {
        let mut store = store_with_xy();
        let unseen = blind_write(100, 1, "x", 5); // never sent to this store
        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("x"), ts(100, 1), unseen.id());
        let t2 = b.build_shared();
        match store.prepare(&t2, CLOCK, DELTA) {
            CheckOutcome::Pending { waiting_on } => assert_eq!(waiting_on, vec![unseen.id()]),
            other => panic!("expected pending, got {other:?}"),
        }
        // When the missing dependency's decision finally arrives, the waiter
        // is released.
        let woken = store.commit(&unseen);
        assert_eq!(woken, vec![(t2.id(), Vote::Commit)]);
    }

    #[test]
    fn multiple_dependencies_release_only_when_all_commit() {
        let mut store = store_with_xy();
        let w1 = blind_write(100, 1, "x", 1);
        let w2 = blind_write(110, 2, "y", 2);
        expect_commit(store.prepare(&w1, CLOCK, DELTA));
        expect_commit(store.prepare(&w2, CLOCK, DELTA));

        let mut b = TransactionBuilder::new(ts(200, 3));
        b.record_dependent_read(k("x"), ts(100, 1), w1.id());
        b.record_dependent_read(k("y"), ts(110, 2), w2.id());
        let t = b.build_shared();
        assert!(matches!(
            store.prepare(&t, CLOCK, DELTA),
            CheckOutcome::Pending { .. }
        ));

        assert!(store.commit(&w1).is_empty(), "still waiting on w2");
        let woken = store.commit(&w2);
        assert_eq!(woken, vec![(t.id(), Vote::Commit)]);
    }

    #[test]
    fn duplicate_prepare_is_idempotent() {
        let mut store = store_with_xy();
        let t = blind_write(100, 1, "x", 1);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        assert_eq!(store.prepared_count(), 1);
        assert_eq!(
            store.stats().prepares,
            1,
            "duplicate deliveries answer from the memo without a check"
        );

        store.commit(&t);
        // After commit, a re-delivered prepare reports commit.
        expect_commit(store.prepare(&t, CLOCK, DELTA));

        let t2 = blind_write(200, 2, "x", 2);
        expect_commit(store.prepare(&t2, CLOCK, DELTA));
        store.abort(t2.id());
        // After abort, a re-delivered prepare reports abort.
        expect_abort(store.prepare(&t2, CLOCK, DELTA), AbortReason::Conflict);
    }

    #[test]
    fn commit_and_abort_are_idempotent() {
        let mut store = store_with_xy();
        let t = blind_write(100, 1, "x", 1);
        store.prepare(&t, CLOCK, DELTA);
        assert!(store.commit(&t).is_empty());
        assert!(store.commit(&t).is_empty());
        assert_eq!(store.committed_count(), 1);

        let t2 = blind_write(200, 2, "y", 1);
        store.prepare(&t2, CLOCK, DELTA);
        assert!(store.abort(t2.id()).is_empty());
        assert!(store.abort(t2.id()).is_empty());
        assert_eq!(store.decision(&t2.id()), Some(Decision::Abort));
    }

    /// A commit then an abort of one id (only an equivocating certificate
    /// pair causes it): the abort is the decision, but the committed
    /// metadata stays, so the audit and a dependent's check (2) still see
    /// the transaction.
    #[test]
    fn abort_after_commit_keeps_the_committed_metadata() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.commit(&w);
        let y = blind_write(200, 2, "y", 1);
        store.commit(&y);
        assert!(store.abort(w.id()).is_empty());
        assert_eq!(store.decision(&w.id()), Some(Decision::Abort));
        assert_eq!(store.committed_count(), 2);
        assert_eq!(store.latest_committed(&k("x")), Some((ts(100, 1), v(5))));
        expect_abort(store.prepare(&w, CLOCK, DELTA), AbortReason::Conflict);

        // A dependent of w that also missed the write of y fails on that
        // conflict: check (2) found w's metadata and passed.
        let mut b = TransactionBuilder::new(ts(300, 3));
        b.record_dependent_read(k("x"), ts(100, 1), w.id());
        b.record_read(k("y"), Timestamp::ZERO);
        let missed = b.build_shared();
        expect_abort(store.prepare(&missed, CLOCK, DELTA), AbortReason::Conflict);
        // Without a conflict, w's abort decides, and nothing stays prepared.
        expect_abort(
            store.prepare(&reads_x_from(400, 4, &w), CLOCK, DELTA),
            AbortReason::DependencyAborted,
        );
        assert_eq!(store.prepared_count(), 0);
    }

    /// An abort then a commit of one id: the commit is the decision and
    /// applies the writes, though the aborted prepare left no slots behind.
    #[test]
    fn commit_after_abort_applies_the_writes() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        assert!(store.abort(w.id()).is_empty());
        assert!(!store.is_prepared(&w.id()));

        assert!(store.commit(&w).is_empty());
        assert_eq!(store.decision(&w.id()), Some(Decision::Commit));
        assert_eq!(store.committed_count(), 1);
        assert_eq!(store.latest_committed(&k("x")), Some((ts(100, 1), v(5))));
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        expect_commit(store.prepare(&reads_x_from(300, 3, &w), CLOCK, DELTA));
    }

    #[test]
    fn commit_without_prior_prepare_applies_writes() {
        // A replica that voted abort (or missed ST1 entirely) still applies a
        // transaction once it receives a valid commit certificate.
        let mut store = store_with_xy();
        let t = blind_write(100, 1, "x", 77);
        store.commit(&t);
        assert_eq!(store.latest_committed(&k("x")).expect("x").1, v(77));
        assert_eq!(store.committed_count(), 1);

        // With no prepare there are no saved slots: the commit interns its
        // keys itself, cold ones included, and leaves both its write and its
        // read where later checks find them.
        let mut b = TransactionBuilder::new(ts(300, 2));
        b.record_read(k("cold-r"), Timestamp::ZERO);
        b.record_write(k("cold-w"), v(5));
        let t2 = b.build_shared();
        store.commit(&t2);
        assert_eq!(
            store.latest_committed(&k("cold-w")),
            Some((ts(300, 2), v(5)))
        );
        assert_eq!(
            store.key_watermarks(&k("cold-r")),
            Some((Timestamp::ZERO, ts(300, 2)))
        );
        let under_the_read = blind_write(200, 3, "cold-r", 1);
        expect_abort(
            store.prepare(&under_the_read, CLOCK, DELTA),
            AbortReason::Conflict,
        );
    }

    // ------------------------------------------------------------------
    // Saved slots: a prepared transaction pins the records of its keys
    // ------------------------------------------------------------------

    #[test]
    fn prepared_slot_survives_release_of_the_keys_other_state() {
        let mut store = MvtsoStore::new();
        // "cold" exists only for an RTS when T prepares a write on it; GC
        // then takes the RTS and everything else it can.
        store.read(&k("cold"), ts(50, 1));
        let t = blind_write(100, 2, "cold", 7);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        store.gc_before(ts(60, 0));
        assert!(
            store.key_watermarks(&k("cold")).is_some(),
            "the prepared write holds the record"
        );
        // Records that do get released are recycled for other keys ...
        store.read(&k("ghost"), ts(70, 3));
        store.gc_before(ts(80, 0));
        assert_eq!(store.key_watermarks(&k("ghost")), None);
        store.read(&k("usurper"), ts(400, 3));
        // ... and the commit, which looks no key up, still lands on "cold".
        store.commit(&t);
        assert_eq!(store.latest_committed(&k("cold")), Some((ts(100, 2), v(7))));
        assert_eq!(store.latest_committed(&k("usurper")), None);

        // The same for a prepared read that is then withdrawn.
        let mut b = TransactionBuilder::new(ts(500, 4));
        b.record_read(k("cold-r"), Timestamp::ZERO);
        let reader = b.build_shared();
        expect_commit(store.prepare(&reader, CLOCK, DELTA));
        store.gc_before(ts(450, 0));
        store.abort(reader.id());
        assert_eq!(
            store.key_watermarks(&k("cold-r")),
            Some((Timestamp::ZERO, Timestamp::ZERO)),
            "unpinned and empty: the next sweep may take it"
        );
        store.gc_before(ts(460, 0));
        assert_eq!(store.key_watermarks(&k("cold-r")), None);
    }

    #[test]
    fn equivocated_timestamp_does_not_unpin_the_other_transaction() {
        let mut store = MvtsoStore::new();
        // One client, one timestamp, two transactions: they share the single
        // prepared entry of "cold", and withdrawing one removes it for both.
        let t1 = blind_write(100, 1, "cold", 1);
        let t2 = blind_write(100, 1, "cold", 2);
        expect_commit(store.prepare(&t1, CLOCK, DELTA));
        expect_commit(store.prepare(&t2, CLOCK, DELTA));
        store.abort(t1.id());
        // Every array of the record is now empty, yet T2 still holds its
        // slot: the sweep must not recycle it for the next new key.
        store.gc_before(ts(10, 0));
        store.read(&k("usurper"), ts(400, 3));
        store.commit(&t2);
        assert_eq!(store.latest_committed(&k("cold")), Some((ts(100, 1), v(2))));
        assert_eq!(store.latest_committed(&k("usurper")), None);
    }

    #[test]
    fn gc_retains_visibility_for_future_readers() {
        let mut store = store_with_xy();
        for i in 1..=10u64 {
            let t = blind_write(i * 100, 1, "x", i);
            store.prepare(&t, CLOCK, DELTA);
            store.commit(&t);
        }
        store.gc_before(ts(550, 0));
        // Future readers still see the newest version at or below the
        // watermark (ts 500) and everything above it.
        let r = store.read(&k("x"), ts(551, 9));
        assert_eq!(r.committed.expect("visible").value, v(5));
        let r = store.read(&k("x"), ts(2_000, 9));
        assert_eq!(r.committed.expect("latest").value, v(10));
    }

    #[test]
    fn prepared_version_carries_dependency_chain_info() {
        let mut store = store_with_xy();
        let w1 = blind_write(100, 1, "x", 1);
        expect_commit(store.prepare(&w1, CLOCK, DELTA));

        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("x"), ts(100, 1), w1.id());
        b.record_write(k("y"), v(2));
        let t2 = b.build_shared();
        assert!(matches!(
            store.prepare(&t2, CLOCK, DELTA),
            CheckOutcome::Pending { .. }
        ));

        // A reader of y at ts 300 sees t2's prepared write, including t2's
        // dependency on w1, so it can later help finish the whole chain.
        let r = store.read(&k("y"), ts(300, 3));
        let prepared = r.prepared.expect("prepared y visible");
        assert_eq!(prepared.txid, t2.id());
        assert_eq!(prepared.tx.deps().len(), 1);
        assert_eq!(prepared.tx.deps()[0].txid, w1.id());
    }

    // ------------------------------------------------------------------
    // Flattened-layout specifics: watermarks, fast path
    // ------------------------------------------------------------------

    #[test]
    fn timestamp_ordered_appends_stay_on_the_fast_path() {
        let mut store = store_with_xy();
        // Monotone blind writes to one key: every check is answered by the
        // watermark comparison (no reader above, version read is newest).
        for i in 1..=50u64 {
            let t = rmw(
                i * 10,
                1,
                "x",
                if i == 1 {
                    Timestamp::ZERO
                } else {
                    ts((i - 1) * 10, 1)
                },
                i,
            );
            expect_commit(store.prepare(&t, CLOCK, DELTA));
            store.commit(&t);
        }
        let stats = store.stats();
        assert_eq!(stats.prepares, 50);
        assert_eq!(stats.slow_path_checks, 0, "no conflict window ever opened");
        assert_eq!(
            stats.fast_path_checks, 100,
            "one read + one write check per tx"
        );
        assert_eq!(stats.fast_path_hit_rate(), 1.0);
    }

    #[test]
    fn stale_reads_and_late_writes_take_the_slow_path() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.commit(&w);

        // Stale read: max_write (100) > version read (0) forces the scan.
        let stale = rmw(200, 2, "x", Timestamp::ZERO, 7);
        expect_abort(store.prepare(&stale, CLOCK, DELTA), AbortReason::Conflict);
        assert!(store.stats().slow_path_checks >= 1);

        // Late write under an RTS: max_read (500) > write ts (300).
        store.read(&k("y"), ts(500, 3));
        let before = store.stats().slow_path_checks;
        let late = blind_write(300, 4, "y", 1);
        expect_abort(store.prepare(&late, CLOCK, DELTA), AbortReason::Conflict);
        assert_eq!(store.stats().slow_path_checks, before + 1);
    }

    #[test]
    fn watermarks_track_inserts_and_removals_exactly() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        assert_eq!(store.key_watermarks(&k("x")).unwrap().0, ts(100, 1));

        // Aborting the newest prepared write lowers max_write back to the
        // genesis version, restoring the fast path for future readers of
        // version ZERO.
        store.abort(w.id());
        assert_eq!(store.key_watermarks(&k("x")).unwrap().0, Timestamp::ZERO);
        let before = store.stats().fast_path_checks;
        let t = rmw(200, 2, "x", Timestamp::ZERO, 7);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        assert!(
            store.stats().fast_path_checks > before,
            "read check answered by the refreshed watermark"
        );

        // Read watermarks follow a GC sweep of the RTS the same way.
        store.read(&k("y"), ts(900, 3));
        assert_eq!(store.key_watermarks(&k("y")).unwrap().1, ts(900, 3));
        store.gc_before(ts(901, 0));
        assert_eq!(store.key_watermarks(&k("y")).unwrap().1, Timestamp::ZERO);
    }

    #[test]
    fn prepare_below_gc_watermark_aborts() {
        let mut store = store_with_xy();
        // Reader at 300 read x@0 and committed; GC then collects its read
        // record. A write backdated under the collected reader must abort —
        // the evidence that would have caught it is gone.
        let mut b = TransactionBuilder::new(ts(300, 1));
        b.record_read(k("x"), Timestamp::ZERO);
        b.record_write(k("dummy"), v(1));
        let reader = b.build_shared();
        expect_commit(store.prepare(&reader, CLOCK, DELTA));
        store.commit(&reader);
        store.gc_before(ts(400, 0));

        let w = blind_write(200, 2, "x", 9);
        expect_abort(
            store.prepare(&w, CLOCK, DELTA),
            AbortReason::TimestampOutOfBounds,
        );
        // Exactly at the watermark is refused too; strictly above proceeds.
        let at = blind_write(400, 0, "x", 9);
        expect_abort(
            store.prepare(&at, CLOCK, DELTA),
            AbortReason::TimestampOutOfBounds,
        );
        let above = blind_write(500, 3, "x", 9);
        expect_commit(store.prepare(&above, CLOCK, DELTA));
    }

    #[test]
    fn unused_key_records_are_pruned() {
        let mut store = store_with_xy();
        // A read of a never-written key holds a record only for its RTS.
        store.read(&k("ghost"), ts(100, 1));
        assert!(store.key_watermarks(&k("ghost")).is_some());

        // GC drops records drained to nothing but keeps live ones.
        store.gc_before(ts(200, 0));
        assert_eq!(
            store.key_watermarks(&k("ghost")),
            None,
            "record released with its last RTS"
        );
        assert!(
            store.key_watermarks(&k("x")).is_some(),
            "keys with retained versions keep their record"
        );

        // The released slot serves the next new key.
        store.read(&k("phantom"), ts(300, 2));
        assert_eq!(
            store.key_watermarks(&k("phantom")),
            Some((Timestamp::ZERO, ts(300, 2)))
        );
    }

    #[test]
    fn gc_refreshes_watermarks() {
        let mut store = store_with_xy();
        for i in 1..=5u64 {
            let t = blind_write(i * 100, 1, "x", i);
            store.prepare(&t, CLOCK, DELTA);
            store.commit(&t);
        }
        store.read(&k("x"), ts(120, 7));
        assert_eq!(store.key_watermarks(&k("x")).unwrap().1, ts(120, 7));
        store.gc_before(ts(450, 0));
        // The RTS at 120 was collected; the newest write (500) is retained.
        let (max_write, max_read) = store.key_watermarks(&k("x")).unwrap();
        assert_eq!(max_write, ts(500, 1));
        assert_eq!(
            max_read,
            Timestamp::ZERO,
            "the only read record (the RTS) was below the GC watermark"
        );
    }
}
