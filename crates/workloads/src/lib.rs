//! # basil-workloads
//!
//! The benchmark workloads used in the Basil evaluation (Section 6), built
//! from scratch as closed-loop transaction generators:
//!
//! * [`ycsb`] — the YCSB-T microbenchmark: configurable reads/writes per
//!   transaction over a large key space, with a uniform (`RW-U`) or Zipfian
//!   (`RW-Z`, coefficient 0.9) access distribution (Figures 5 and 6).
//! * [`smallbank`] — the Smallbank banking benchmark: one million accounts,
//!   1,000 of which receive 90% of the accesses (Figure 4).
//! * [`retwis`] — the Retwis-based social-network workload used to evaluate
//!   TAPIR, with a Zipf 0.75 key distribution (Figure 4).
//! * [`tpcc`] — TPC-C configured with 20 warehouses and the auxiliary
//!   customer-name index tables the paper describes (Figure 4).
//! * [`zipf`] — the Zipfian sampler shared by the generators (the
//!   Gray et al. approximation used by YCSB).
//! * [`poisson`] — an open-loop adapter that paces any of the above with
//!   seeded Poisson arrivals.
//!
//! Every generator implements [`basil_common::TxGenerator`] and produces
//! [`basil_common::TxProfile`]s, so the same workloads drive Basil and every
//! baseline system.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod poisson;
pub mod retwis;
pub mod smallbank;
pub mod tpcc;
pub mod ycsb;
pub mod zipf;

pub use poisson::PoissonTxGenerator;
pub use retwis::RetwisGenerator;
pub use smallbank::SmallbankGenerator;
pub use tpcc::TpccGenerator;
pub use ycsb::YcsbGenerator;
pub use zipf::ZipfSampler;

/// The generator seed of client `client` in a deployment seeded `seed`.
/// Every runner (the scenario runner, the figure experiments and
/// `basil-node`) splits the seed this way, so one workload seed drives the
/// same per-client transaction streams on every runtime.
pub fn client_seed(seed: u64, client: u64) -> u64 {
    seed.wrapping_add(client.wrapping_mul(7919))
}
