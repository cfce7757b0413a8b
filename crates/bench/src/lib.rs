//! # basil-bench
//!
//! The experiment harness that regenerates every figure of the Basil
//! evaluation (Section 6). Each figure has a binary in `src/bin/` that runs
//! the corresponding experiment on the simulator and prints the same series
//! the paper reports, next to the paper's numbers; `EXPERIMENTS.md` records
//! the comparison. Criterion micro-benchmarks for the substrates live in
//! `benches/`.
//!
//! The experiments report throughput at a fixed, saturating offered load
//! (a configurable number of closed-loop clients) rather than sweeping to an
//! exact peak; the *relative* ordering between systems and configurations —
//! which is what the paper's claims are about — is insensitive to the exact
//! client count.
//!
//! ## Figure binaries
//!
//! | binary                | paper figure | experiment                          |
//! |-----------------------|--------------|-------------------------------------|
//! | `fig4_applications`   | Fig. 4       | Basil vs baselines per workload     |
//! | `fig5a_signatures`    | Fig. 5a      | signature-cost ablation             |
//! | `fig5b_read_quorums`  | Fig. 5b      | read-quorum sizing                  |
//! | `fig5c_shards`        | Fig. 5c      | shard scaling                       |
//! | `fig6a_fastpath`      | Fig. 6a      | fast-path ablation                  |
//! | `fig6b_batching`      | Fig. 6b      | reply-batch sizing                  |
//! | `fig7_failures`       | Fig. 7       | Byzantine-client degradation        |
//!
//! ## Micro-benchmarks (`benches/`)
//!
//! `crypto_bench` and `store_bench` cover the substrates; `protocol_bench`
//! covers vote tallying, certificate validation, the fallback view rules,
//! the raw event scheduler (`sim_scheduler/*`), and a full Basil deployment
//! at a high client count (`protocol_cluster/basil_rwu_96clients`);
//! `figures_bench` runs scaled-down figure points. All runs are seeded and
//! deterministic in *simulated* behaviour; only wall-clock timing varies.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod snapshot;

use basil::baseline_harness::{BaselineCluster, BaselineClusterConfig};
use basil::baselines::{BaselineConfig, SystemKind};
use basil::harness::{BasilCluster, ClusterConfig};
use basil::workloads::poisson::PoissonTxGenerator;
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
        let s = seed.wrapping_add(client.0.wrapping_mul(7919));
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

    /// Overrides the client count.
    pub fn with_clients(mut self, clients: u32) -> Self {
        self.clients = clients;
        self
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

/// Runs Basil under *open-loop* load: every client offers Poisson arrivals
/// at `rate_tps` transactions per second (so the aggregate offered load is
/// `params.clients * rate_tps`), queues up to the configured admission
/// bound, and sheds beyond it. The knee sweeps (`fig_knee`) call this at
/// increasing rates to trace throughput versus latency.
pub fn run_basil_open_loop(
    basil: BasilConfig,
    workload: Workload,
    params: &RunParams,
    rate_tps: f64,
) -> RunReport {
    let config = ClusterConfig::basil_default(params.clients)
        .with_basil(basil)
        .with_seed(params.seed);
    let seed = params.seed;
    let mut cluster = BasilCluster::build(config, move |client| {
        // Distinct arrival-process seed per client so Poisson streams are
        // independent; content seeds stay identical to the closed-loop runs.
        let arrival_seed = seed.wrapping_add(client.0.wrapping_mul(104_729));
        Box::new(PoissonTxGenerator::new(
            workload.generator(client, seed),
            arrival_seed,
            rate_tps,
        ))
    });
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

/// [`basil_default`] at an explicit fault tolerance: `f = 2` yields n = 11
/// replicas per shard (the fig5c scale-out extension row).
pub fn basil_with_f(shards: u32, f: u32) -> BasilConfig {
    BasilConfig::bench(SystemConfig::sharded_f(shards, f)).with_batch_size(16)
}

/// The Basil configuration used for TPC-C (the paper uses batch size 4 on the
/// contended workload).
pub fn basil_tpcc() -> BasilConfig {
    BasilConfig::bench(SystemConfig::single_shard_f1()).with_batch_size(4)
}

/// Prints an aligned table row by row.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(String::len).unwrap_or(0))
                .chain([h.len()])
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats throughput for tables.
pub fn tps(report: &RunReport) -> String {
    format!("{:.0}", report.throughput_tps)
}

/// Formats latency for tables.
pub fn lat(report: &RunReport) -> String {
    format!("{:.2}", report.mean_latency_ms)
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
