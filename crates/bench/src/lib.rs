//! # basil-bench
//!
//! The experiment harness that regenerates every figure of the Basil
//! evaluation (Section 6). [`figures::FIGURES`] is one table of every
//! figure point; the `figures` binary runs it on the simulator, prints each
//! figure's series next to the paper's numbers and checks that every
//! point's mechanism fired. Criterion micro-benchmarks for the substrates
//! live in `benches/`.
//!
//! The paper compares peak throughputs, and at a fixed client count the
//! ordering between systems and configurations is a load artifact: at 24
//! clients Fig. 5b's 2f+1 read came out 17% faster than a single read. So
//! each full-scale capacity point of Figs. 4–6b runs at every client count
//! of [`figures::PEAK_CLIENTS`] and reports the one that commits most.
//!
//! ## Micro-benchmarks (`benches/`)
//!
//! `crypto_bench` and `store_bench` cover the substrates; `protocol_bench`
//! covers vote tallying, certificate validation, the fallback view rules,
//! the raw event scheduler (`sim_scheduler/*`), and a full Basil deployment
//! at a high client count (`protocol_cluster/basil_rwu_96clients`);
//! `figures_bench` times quick points of the figure table. All runs are
//! seeded and deterministic in *simulated* behaviour; only wall-clock
//! timing varies.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod snapshot;

use basil::baseline_harness::{BaselineCluster, BaselineClusterConfig};
use basil::baselines::{BaselineConfig, SystemKind};
use basil::harness::{BasilCluster, ClusterConfig};
use basil::workloads::retwis::RetwisGenerator;
use basil::workloads::smallbank::SmallbankGenerator;
use basil::workloads::tpcc::TpccGenerator;
use basil::workloads::ycsb::YcsbGenerator;
use basil::{BasilConfig, ClientId, Duration, RunReport, SystemConfig, TxGenerator};

/// The workloads used across the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// TPC-C with 20 warehouses.
    Tpcc,
    /// Smallbank, 1M accounts with a 1,000-account hotspot (scaled-down key
    /// space for simulation memory friendliness; hotspot ratio preserved).
    Smallbank,
    /// Retwis with a Zipf 0.75 user distribution.
    Retwis,
    /// YCSB-T uniform (`RW-U`) with the given reads/writes per transaction.
    RwUniform {
        /// Reads per transaction.
        reads: usize,
        /// Writes per transaction.
        writes: usize,
    },
    /// YCSB-T Zipfian 0.9 (`RW-Z`).
    RwZipf {
        /// Reads per transaction.
        reads: usize,
        /// Writes per transaction.
        writes: usize,
    },
    /// Read-only YCSB-T transactions (Figure 5b).
    ReadOnly {
        /// Reads per transaction.
        ops: usize,
    },
}

impl Workload {
    /// Display label.
    pub fn name(&self) -> String {
        match self {
            Workload::Tpcc => "TPCC".into(),
            Workload::Smallbank => "Smallbank".into(),
            Workload::Retwis => "Retwis".into(),
            Workload::RwUniform { reads, writes } => format!("RW-U {reads}r{writes}w"),
            Workload::RwZipf { reads, writes } => format!("RW-Z {reads}r{writes}w"),
            Workload::ReadOnly { ops } => format!("ReadOnly {ops}r"),
        }
    }

    /// Number of keys used by the YCSB variants. The paper uses ten million;
    /// one million keeps simulation memory modest while staying effectively
    /// uncontended for the uniform workload.
    pub const YCSB_KEYS: u64 = 1_000_000;

    /// Builds the per-client generator.
    pub fn generator(&self, client: ClientId, seed: u64) -> Box<dyn TxGenerator> {
        let s = basil::workloads::client_seed(seed, client.0);
        match self {
            Workload::Tpcc => Box::new(TpccGenerator::new(s, 20)),
            Workload::Smallbank => Box::new(SmallbankGenerator::new(s, 1_000_000, 1_000, 0.9)),
            Workload::Retwis => Box::new(RetwisGenerator::paper_config(s, 1_000_000)),
            Workload::RwUniform { reads, writes } => Box::new(YcsbGenerator::rw_uniform(
                s,
                Self::YCSB_KEYS,
                *reads,
                *writes,
            )),
            Workload::RwZipf { reads, writes } => Box::new(YcsbGenerator::rw_zipf(
                s,
                Self::YCSB_KEYS,
                *reads,
                *writes,
                0.9,
            )),
            Workload::ReadOnly { ops } => {
                Box::new(YcsbGenerator::read_only(s, Self::YCSB_KEYS, *ops))
            }
        }
    }
}

/// Parameters of one experiment run.
#[derive(Clone, Debug)]
pub struct RunParams {
    /// Number of closed-loop clients.
    pub clients: u32,
    /// Warmup before measurement starts.
    pub warmup: Duration,
    /// Measurement window.
    pub window: Duration,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            clients: 24,
            warmup: Duration::from_millis(150),
            window: Duration::from_millis(400),
            seed: 42,
        }
    }
}

impl RunParams {
    /// A lighter parameter set used by the Criterion figure benches and smoke
    /// tests.
    pub fn quick() -> Self {
        RunParams {
            clients: 8,
            warmup: Duration::from_millis(50),
            window: Duration::from_millis(150),
            seed: 42,
        }
    }
}

/// Runs Basil with the given protocol configuration on a workload.
pub fn run_basil(basil: BasilConfig, workload: Workload, params: &RunParams) -> RunReport {
    let config = ClusterConfig::basil_default(params.clients)
        .with_basil(basil)
        .with_seed(params.seed);
    let seed = params.seed;
    let mut cluster = BasilCluster::build(config, |client| workload.generator(client, seed));
    cluster.run_measured(params.warmup, params.window)
}

/// Runs one of the baseline systems on a workload.
pub fn run_baseline(
    kind: SystemKind,
    shards: u32,
    workload: Workload,
    params: &RunParams,
) -> RunReport {
    let batch = match (kind, workload) {
        // The paper's best batch sizes per system and application class.
        (SystemKind::TxHotstuff, Workload::Tpcc) => 4,
        (SystemKind::TxBftSmart, Workload::Tpcc) => 16,
        (SystemKind::TxHotstuff, _) => 16,
        (SystemKind::TxBftSmart, _) => 64,
        (SystemKind::Tapir, _) => 1,
    };
    let config = BaselineClusterConfig::new(
        BaselineConfig::new(kind)
            .with_shards(shards)
            .with_batch_size(batch),
        params.clients,
    )
    .with_seed(params.seed);
    let seed = params.seed;
    let mut cluster = BaselineCluster::build(config, |client| workload.generator(client, seed));
    cluster.run_measured(params.warmup, params.window)
}

/// The default Basil configuration used by the figure experiments: simulated
/// crypto costs, reply batching of 16 (the paper's YCSB/Smallbank setting).
pub fn basil_default(shards: u32) -> BasilConfig {
    BasilConfig::bench(SystemConfig::sharded(shards)).with_batch_size(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_basil_run_produces_throughput() {
        let report = run_basil(
            basil_default(1),
            Workload::RwUniform {
                reads: 2,
                writes: 2,
            },
            &RunParams::quick(),
        );
        assert!(report.committed > 0);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn quick_baseline_run_produces_throughput() {
        let report = run_baseline(
            SystemKind::Tapir,
            1,
            Workload::RwUniform {
                reads: 2,
                writes: 2,
            },
            &RunParams::quick(),
        );
        assert!(report.committed > 0);
    }

    #[test]
    fn workload_names_and_generators() {
        for w in [
            Workload::Tpcc,
            Workload::Smallbank,
            Workload::Retwis,
            Workload::RwUniform {
                reads: 2,
                writes: 2,
            },
            Workload::RwZipf {
                reads: 2,
                writes: 2,
            },
            Workload::ReadOnly { ops: 24 },
        ] {
            assert!(!w.name().is_empty());
            let mut g = w.generator(ClientId(1), 7);
            assert!(g.next_tx().is_some());
        }
    }
}
