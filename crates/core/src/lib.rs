//! # basil-core
//!
//! The Basil protocol: a leaderless, transactional, Byzantine fault-tolerant
//! key-value store (Suri-Payer et al., SOSP 2021).
//!
//! The crate implements both protocol roles as sans-io state machines that
//! plug into the `basil-simnet` cluster simulator:
//!
//! * [`client::BasilClient`] drives transactions through the three phases of
//!   Figure 1 — Execution (versioned reads against `f+1`-sized quorums, local
//!   write buffering), Prepare (stage ST1 vote collection and, on the slow
//!   path, stage ST2 decision logging on a single shard), and an asynchronous
//!   Writeback — and runs the per-transaction fallback of Section 5 to finish
//!   transactions stalled by other (possibly Byzantine) clients.
//! * [`replica::BasilReplica`] serves reads from the multiversioned store,
//!   runs the MVTSO concurrency-control check (Algorithm 1) for ST1 requests,
//!   logs ST2 decisions, applies writebacks, batches and signs its replies
//!   (Section 4.4), and participates in fallback leader election.
//!
//! Supporting modules: [`messages`] (the wire protocol), [`certs`]
//! (vote/commit/abort certificates and their validation), [`quorum`] (vote
//! tally classification for the fast and slow paths), [`views`] (the
//! per-transaction view-change rules R1/R2 with vote subsumption),
//! [`crypto_engine`] (signing/verification with CPU-cost accounting), and
//! [`byzantine`] (the client and replica misbehaviour strategies evaluated in
//! Section 6.4).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod byzantine;
pub mod certs;
pub mod client;
pub mod config;
pub mod crypto_engine;
pub mod messages;
pub mod quorum;
pub mod replica;
pub mod views;

pub use byzantine::{ClientStrategy, ReplicaBehavior};
pub use certs::{DecisionCert, DecisionProof, VoteCert};
pub use client::{BasilClient, ClientStats};
pub use config::BasilConfig;
pub use messages::BasilMsg;
pub use replica::BasilReplica;
