//! # basil
//!
//! Facade crate of the Basil reproduction: re-exports the public API of the
//! underlying crates and provides the [`harness`] used by the examples, the
//! integration tests, and the benchmark suite to stand up whole simulated
//! deployments (Basil or one of the baselines), drive workloads against
//! them, and collect throughput/latency reports.
//!
//! ```no_run
//! use basil::harness::{BasilCluster, ClusterConfig};
//! use basil::workloads; // re-export of basil-workloads
//! # fn main() {
//! let config = ClusterConfig::basil_default(4 /* clients */);
//! let mut cluster = BasilCluster::build(config, |client| {
//!     Box::new(workloads::ycsb::YcsbGenerator::rw_uniform(client.0, 1000, 2, 2))
//! });
//! let report = cluster.run_measured(
//!     basil::Duration::from_millis(100),
//!     basil::Duration::from_millis(500),
//! );
//! println!("throughput: {:.0} tx/s", report.throughput_tps);
//! # }
//! ```
//!
//! ## Key types
//!
//! * [`cluster::ProtocolCluster`] — the one generic cluster runtime;
//!   [`cluster::ClusterProtocol`] is the seam a protocol implements to run
//!   on it (see `docs/ARCHITECTURE.md` at the repository root).
//! * [`harness::BasilCluster`] / [`baseline_harness::BaselineCluster`] —
//!   the two shipped adapters.
//! * [`report::Snapshot`] / [`report::RunReport`] — measurement: snapshots
//!   merge per-client streaming latency histograms
//!   ([`basil_common::LatencyHistogram`]); a window report is the
//!   difference of two snapshots, so its cost is independent of how many
//!   samples a long run has accumulated.
//!
//! ## Determinism
//!
//! A cluster's entire behaviour is a function of its
//! [`cluster::ClusterConfig`] (including the seed) and the workload
//! generators: the underlying simulator delivers events in a reproducible
//! order for a fixed seed, so every experiment, test, and figure in this
//! repository can be re-run exactly.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline_harness;
pub mod cluster;
pub mod harness;
pub mod report;

pub use baseline_harness::{BaselineCluster, BaselineClusterConfig, BaselineProtocol};
pub use basil_common::{
    ClientId, Duration, Key, NodeId, Op, ReadQuorum, ReplicaId, ScriptedGenerator, ShardConfig,
    ShardId, SimTime, SystemConfig, Timestamp, TxGenerator, TxId, TxProfile, Value,
};
pub use basil_core::{
    BasilClient, BasilConfig, BasilReplica, ClientStats, ClientStrategy, ReplicaBehavior,
};
pub use basil_crypto::{CostModel, KeyRegistry};
pub use basil_simnet::{NetworkConfig, Simulation};
pub use basil_store::{audit_serializability, AuditError, StoreStats, Transaction};
pub use cluster::{audit_history, ClusterAuditError, ClusterProtocol, ProtocolCluster};
pub use harness::{BasilCluster, BasilProtocol, ClusterConfig};
pub use report::RunReport;

/// Re-export of the workload generators.
pub use basil_workloads as workloads;

/// Re-export of the baseline systems (TAPIR-style, TxHotstuff, TxBFT-SMaRt).
pub use basil_baselines as baselines;
