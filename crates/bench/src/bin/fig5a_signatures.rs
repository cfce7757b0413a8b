//! Figure 5a: the cost of cryptography — Basil vs Basil-NoProofs on the
//! uniform (RW-U) and Zipfian (RW-Z) YCSB-T workloads (2 reads, 2 writes).

use basil_bench::{basil_default, print_table, run_basil, RunParams, Workload};

fn main() {
    let p = if std::env::var("BASIL_BENCH_QUICK").is_ok() {
        RunParams::quick()
    } else {
        RunParams::default()
    };
    let workloads = [
        (
            "RW-U",
            Workload::RwUniform {
                reads: 2,
                writes: 2,
            },
            38_241.0,
            143_880.0,
        ),
        (
            "RW-Z",
            Workload::RwZipf {
                reads: 2,
                writes: 2,
            },
            4_777.0,
            21_978.0,
        ),
    ];
    let mut rows = Vec::new();
    for (name, workload, paper_basil, paper_noproofs) in workloads {
        let with_sigs = run_basil(basil_default(1), workload, &p);
        let noproofs = run_basil(basil_default(1).without_proofs(), workload, &p);
        let ratio = noproofs.throughput_tps / with_sigs.throughput_tps.max(1.0);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", with_sigs.throughput_tps),
            format!("{:.0}", noproofs.throughput_tps),
            format!("{ratio:.1}x"),
            format!("{:.1}x", paper_noproofs / paper_basil),
        ]);
        eprintln!(
            "[fig5a] {name}: Basil {:.0} tx/s ({:.2} ms), NoProofs {:.0} tx/s ({:.2} ms)",
            with_sigs.throughput_tps,
            with_sigs.mean_latency_ms,
            noproofs.throughput_tps,
            noproofs.mean_latency_ms
        );
    }
    print_table(
        "Figure 5a: impact of signatures (peak throughput, tx/s)",
        &[
            "workload",
            "Basil",
            "Basil-NoProofs",
            "speedup",
            "paper speedup",
        ],
        &rows,
    );
}
