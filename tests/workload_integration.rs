//! Integration of the application benchmarks (TPC-C, Smallbank, Retwis) with
//! the Basil cluster: each workload runs end-to-end, commits transactions of
//! every type, and leaves a serializable history.

use basil::harness::{BasilCluster, ClusterConfig};
use basil::workloads::retwis::RetwisGenerator;
use basil::workloads::smallbank::SmallbankGenerator;
use basil::workloads::tpcc::TpccGenerator;
use basil::{BasilConfig, Duration, SystemConfig};

#[test]
fn tpcc_runs_on_basil() {
    let config = ClusterConfig::basil_default(4)
        .with_basil(BasilConfig::bench(SystemConfig::single_shard_f1()))
        .with_seed(21);
    let mut cluster =
        BasilCluster::build(config, |client| Box::new(TpccGenerator::new(client.0, 20)));
    let report = cluster.run_measured(Duration::from_millis(200), Duration::from_millis(600));
    assert!(report.committed > 10, "got {} commits", report.committed);
    // The two dominant transaction types must both be committing.
    assert!(
        report.per_label.get("new_order").copied().unwrap_or(0) > 0,
        "no new_order commits: {:?}",
        report.per_label
    );
    assert!(
        report.per_label.get("payment").copied().unwrap_or(0) > 0,
        "no payment commits: {:?}",
        report.per_label
    );
    cluster.audit().expect("TPC-C history serializable");
}

#[test]
fn smallbank_runs_on_basil() {
    let config = ClusterConfig::basil_default(4)
        .with_basil(BasilConfig::bench(SystemConfig::single_shard_f1()))
        .with_seed(22);
    let mut cluster = BasilCluster::build(config, |client| {
        Box::new(SmallbankGenerator::new(client.0, 10_000, 100, 0.9))
    });
    let report = cluster.run_measured(Duration::from_millis(200), Duration::from_millis(600));
    assert!(report.committed > 30, "got {} commits", report.committed);
    assert!(
        report.commit_rate > 0.5,
        "commit rate {}",
        report.commit_rate
    );
    cluster.audit().expect("Smallbank history serializable");
}

#[test]
fn retwis_runs_on_basil() {
    let config = ClusterConfig::basil_default(4)
        .with_basil(BasilConfig::bench(SystemConfig::single_shard_f1()))
        .with_seed(23);
    let mut cluster = BasilCluster::build(config, |client| {
        Box::new(RetwisGenerator::paper_config(client.0, 100_000))
    });
    let report = cluster.run_measured(Duration::from_millis(200), Duration::from_millis(600));
    assert!(report.committed > 30, "got {} commits", report.committed);
    // Read-dominated mix: timelines must be committing.
    assert!(
        report.per_label.get("get_timeline").copied().unwrap_or(0) > 0,
        "no get_timeline commits: {:?}",
        report.per_label
    );
    cluster.audit().expect("Retwis history serializable");
}

#[test]
fn tpcc_runs_on_a_sharded_deployment() {
    let config = ClusterConfig::basil_default(4)
        .with_basil(BasilConfig::bench(SystemConfig::sharded(3)))
        .with_seed(24);
    let mut cluster =
        BasilCluster::build(config, |client| Box::new(TpccGenerator::new(client.0, 20)));
    let report = cluster.run_measured(Duration::from_millis(200), Duration::from_millis(600));
    assert!(report.committed > 5, "got {} commits", report.committed);
    // Fault-free, so no replica may need a fallback to vote: each waits
    // only on dependencies its own shard decides.
    assert_eq!(report.fallbacks, 0, "fallbacks in a fault-free run");
    cluster.audit().expect("sharded TPC-C history serializable");
}

/// The contention ordering the paper reports: TPC-C (hot warehouse rows)
/// aborts more than Smallbank or Retwis on the same deployment.
#[test]
fn tpcc_is_more_contended_than_smallbank() {
    let run = |which: &str| {
        let config = ClusterConfig::basil_default(6)
            .with_basil(BasilConfig::bench(SystemConfig::single_shard_f1()))
            .with_seed(25);
        let which = which.to_string();
        let mut cluster = BasilCluster::build(config, move |client| {
            if which == "tpcc" {
                Box::new(TpccGenerator::new(client.0, 20)) as Box<dyn basil::TxGenerator>
            } else {
                Box::new(SmallbankGenerator::new(client.0, 100_000, 1_000, 0.9))
            }
        });
        cluster.run_measured(Duration::from_millis(200), Duration::from_millis(600))
    };
    let tpcc = run("tpcc");
    let smallbank = run("smallbank");
    assert!(
        tpcc.commit_rate <= smallbank.commit_rate + 0.05,
        "TPC-C ({}) should be at least as contended as Smallbank ({})",
        tpcc.commit_rate,
        smallbank.commit_rate
    );
}
