//! Figure 7: Basil under Byzantine client failures. For each attack strategy
//! (stall-early, stall-late, forced equivocation, realistic equivocation) and
//! a growing fraction of Byzantine clients, reports the throughput of correct
//! clients normalized per correct client, on RW-U (Figure 7a) and RW-Z
//! (Figure 7b). The paper's headline: with 30% Byzantine clients, correct
//! client throughput drops by less than 25% in the worst realistic case.
//!
//! Each cell is a declarative [`ScenarioSpec`] executed by the scenario
//! runner — the same path the failure tests and the schedule fuzzer use —
//! so the figure, the regression corpus, and the fuzzer all agree on what
//! "run Basil with Byzantine clients" means.

use basil::cluster::RuntimeMode;
use basil_bench::{print_table, RunParams};
use basil_core::byzantine::ClientStrategy;
use basil_scenario::runner::run_basil_spec;
use basil_scenario::spec::{FaultBudget, ScenarioSpec, WorkloadSpec};

/// The figure's two workloads, expressed as scenario workload specs (same
/// key space and skew as the bench harness's `Workload::Rw*`).
const YCSB_KEYS: u64 = 1_000_000;

fn main() {
    let p = if std::env::var("BASIL_BENCH_QUICK").is_ok() {
        RunParams::quick()
    } else {
        RunParams::default()
    };
    let fractions = [0.0f64, 0.1, 0.2, 0.3, 0.4];
    let strategies = [
        ("stall-early", ClientStrategy::StallEarly),
        ("stall-late", ClientStrategy::StallLate),
        ("equiv-forced", ClientStrategy::EquivForced),
        ("equiv-real", ClientStrategy::EquivReal),
    ];
    for (fig, workload) in [
        (
            "Figure 7a (RW-U)",
            WorkloadSpec::RwUniform {
                reads: 2,
                writes: 2,
                keys: YCSB_KEYS,
            },
        ),
        (
            "Figure 7b (RW-Z)",
            WorkloadSpec::RwZipf {
                reads: 2,
                writes: 2,
                keys: YCSB_KEYS,
                theta: 0.9,
            },
        ),
    ] {
        let mut rows = Vec::new();
        for (name, strategy) in strategies {
            let mut row = vec![name.to_string()];
            let mut baseline = None;
            for fraction in fractions {
                let byz_clients = ((p.clients as f64) * fraction).round() as u32;
                let spec = ScenarioSpec {
                    name: format!("fig7 {name} {:.0}%", fraction * 100.0),
                    seed: p.seed,
                    clients: p.clients,
                    byz_clients,
                    byz_strategy: strategy,
                    byz_fraction: 1.0,
                    f: 1,
                    batch_size: 16,
                    relax_st2: strategy == ClientStrategy::EquivForced,
                    warmup_ms: p.warmup.as_millis(),
                    duration_ms: (p.warmup + p.window).as_millis(),
                    // A figure sweep measures steady-state throughput; no
                    // quiet tail, no fault budget to keep within.
                    tail_ms: 0,
                    budget: FaultBudget {
                        crash: 0,
                        deceit: 0,
                    },
                    workload,
                    faults: vec![],
                    expect: None,
                };
                spec.validate().expect("figure cell spec is well-formed");
                let outcome = run_basil_spec(&spec, RuntimeMode::Serial);
                let per_client = outcome.report.throughput_per_correct_client;
                if baseline.is_none() {
                    baseline = Some(per_client.max(1e-9));
                }
                row.push(format!(
                    "{:.0} ({:+.0}%)",
                    per_client,
                    (per_client / baseline.expect("set") - 1.0) * 100.0
                ));
                eprintln!(
                    "[fig7] {} {} {:.0}% byz: {:.0} tx/s/correct-client, fallbacks {}",
                    fig,
                    name,
                    fraction * 100.0,
                    per_client,
                    outcome.fallbacks
                );
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "{fig}: throughput per correct client (tx/s) vs fraction of Byzantine clients"
            ),
            &["strategy", "0%", "10%", "20%", "30%", "40%"],
            &rows,
        );
    }
    println!("\nPaper shape: graceful, near-linear degradation; <25% drop at 30% Byzantine for realistic strategies; forced equivocation worst on the contended workload.");
}
