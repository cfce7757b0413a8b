//! # basil-store
//!
//! The multiversioned storage substrate of the Basil reproduction.
//!
//! Basil modifies multiversioned timestamp ordering (MVTSO) to run under
//! Byzantine faults (Section 4). This crate implements the storage-engine
//! half of that design, independent of networking and quorums:
//!
//! * [`tx`] — the transaction representation: timestamp, read set (with the
//!   versions read), buffered write set, dependency set, and the
//!   hash-derived transaction identifier.
//! * [`session`] — the client's transaction session: the closed-loop
//!   discipline (next profile, execution cursor with read-your-writes,
//!   strictly monotonic timestamps, commit/abort accounting, abort backoff)
//!   that the Basil client and the baseline clients run over their
//!   different commit protocols.
//! * [`mvtso`] — the per-replica storage engine: committed version chains,
//!   prepared (visible but uncommitted) writes, read timestamps (RTS),
//!   the concurrency-control check of **Algorithm 1**, and dependency
//!   tracking with deferred votes ("wait for all pending dependencies").
//! * [`varray`] — the flattened, timestamp-sorted version arrays backing the
//!   store's per-key records (append-mostly `Vec`s with binary-search
//!   range queries; the watermark fast path of
//!   [`mvtso::MvtsoStore::prepare`] is built on their `O(1)` tails).
//! * [`audit`] — a serialization-graph auditor used by tests to verify that
//!   every committed history is acyclic (Byz-serializability, Lemma 1).
//! * [`wal`] — a simulated durable write-ahead log: checksum-framed records
//!   of prepares, decisions, applies, and GC watermarks, with torn-tail
//!   tolerant recovery. Replicas replay it after an *amnesia* restart.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod mvtso;
#[cfg(test)]
mod reference;
pub mod session;
pub mod tx;
pub mod varray;
pub mod wal;

pub use audit::{audit_serializability, AuditError};
pub use mvtso::{CheckOutcome, Decision, MvtsoStore, ReadResult, StoreStats, Vote};
pub use session::{Session, SessionStats};
pub use tx::{Dependency, ReadOp, Transaction, TransactionBuilder, WriteOp};
pub use varray::VersionArray;
pub use wal::{Wal, WalRecord};
