//! # basil-baselines
//!
//! The baseline systems the Basil paper compares against (Section 6,
//! *Baselines*), rebuilt on the same simulator and workloads:
//!
//! * **TAPIR-style** ([`profile::SystemKind::Tapir`]) — a non-Byzantine
//!   distributed database that integrates replication with cross-shard
//!   coordination: `2f + 1` replicas per shard, no signatures, OCC
//!   validation executed directly on message receipt, single-round-trip
//!   prepares in the common case.
//! * **TxHotstuff** ([`profile::SystemKind::TxHotstuff`]) — a transaction
//!   layer (2PC + OCC) built over a leader-based, chained-HotStuff-style
//!   ordering engine per shard (`3f + 1` replicas, four leader/replica
//!   voting rounds before a batch is ordered, so a Prepare result reaches
//!   the client after roughly nine message delays, as the paper reports).
//! * **TxBFT-SMaRt** ([`profile::SystemKind::TxBftSmart`]) — the same
//!   transaction layer over a PBFT-style engine (`3f + 1` replicas, two
//!   voting rounds, roughly five message delays per ordered request).
//!
//! ## Fidelity note (also recorded in `docs/ARCHITECTURE.md`, crate map)
//!
//! The baselines reproduce the *performance structure* the paper measures —
//! message patterns, ordering latency, batching, quorum sizes, OCC
//! serializability checks, and cryptographic CPU cost (charged through
//! [`basil_crypto::CostModel`]) — but do not carry real signature objects:
//! the paper evaluates the baselines only in fault-free executions, so their
//! Byzantine-attack handling is never exercised.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod messages;
pub mod occ;
pub mod profile;
pub mod replica;

pub use client::BaselineClient;
pub use messages::BaselineMsg;
pub use profile::{BaselineConfig, SystemKind};
pub use replica::BaselineReplica;
