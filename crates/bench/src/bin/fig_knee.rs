//! Open-loop saturation knee curves: offered load vs throughput and latency.
//!
//! Sweeps the per-client Poisson arrival rate for each workload and reports,
//! per rate point, the achieved throughput, the latency percentiles, the
//! shed fraction, and whether the point meets the latency SLO. Before the
//! knee, throughput tracks the offered line and latency stays flat; past it,
//! throughput plateaus while queueing pushes the percentiles up and the
//! admission bound starts shedding — the classic saturation shape the
//! paper's peak-throughput points are read from.
//!
//! Output: a human-readable table plus a machine-readable JSON document
//! (written to the path in `BASIL_KNEE_JSON`, or stdout when unset).
//! `BASIL_BENCH_QUICK` shrinks the run; `BASIL_KNEE_RATES=a,b,c` overrides
//! the per-client rate grid (used by the CI smoke run).

use basil::LatencySlo;
use basil_bench::{basil_default, print_table, run_basil_open_loop, RunParams, Workload};

/// One measured rate point on a knee curve.
struct KneePoint {
    rate_per_client: f64,
    offered_tps: f64,
    throughput_tps: f64,
    p50_ms: f64,
    p99_ms: f64,
    shed_fraction: f64,
    slo_met: bool,
}

fn rates_from_env(default: &[f64]) -> Vec<f64> {
    match std::env::var("BASIL_KNEE_RATES") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|r| r.trim().parse::<f64>().ok())
            .filter(|r| *r > 0.0)
            .collect(),
        Err(_) => default.to_vec(),
    }
}

fn main() {
    let quick = std::env::var("BASIL_BENCH_QUICK").is_ok();
    let p = if quick {
        RunParams::quick()
    } else {
        RunParams::default()
    };
    // Per-client arrival rates (tx/s). Closed-loop clients settle around
    // 300-500 tx/s each in this cost model, so the grid straddles the knee.
    let default_rates: &[f64] = if quick {
        &[100.0, 300.0, 600.0]
    } else {
        &[50.0, 100.0, 200.0, 300.0, 400.0, 600.0, 800.0]
    };
    let rates = rates_from_env(default_rates);
    assert!(!rates.is_empty(), "no valid rates in BASIL_KNEE_RATES");
    // Wide enough that pre-knee points pass under Zipfian contention; the
    // first rate that misses it is the saturation knee.
    let slo = LatencySlo::new(10.0, 50.0);
    let workloads = [
        (
            "RW-Z",
            Workload::RwZipf {
                reads: 2,
                writes: 2,
            },
        ),
        ("Retwis", Workload::Retwis),
    ];

    let basil = basil_default(1);

    let mut curves: Vec<(&str, Vec<KneePoint>)> = Vec::new();
    for (name, workload) in workloads {
        let mut points = Vec::new();
        for &rate in &rates {
            let report = run_basil_open_loop(basil.clone(), workload, &p, rate);
            let outcome = report.check_slo(&slo);
            eprintln!(
                "[fig_knee] {name} rate={rate:.0}/client: offered {:.0} tx/s, \
                 committed {:.0} tx/s, p50 {:.2} ms, p99 {:.2} ms, shed {:.1}%{}",
                report.offered_tps,
                report.throughput_tps,
                report.p50_latency_ms,
                report.p99_latency_ms,
                report.shed_fraction * 100.0,
                if outcome.met() { "" } else { "  [SLO MISS]" },
            );
            points.push(KneePoint {
                rate_per_client: rate,
                offered_tps: report.offered_tps,
                throughput_tps: report.throughput_tps,
                p50_ms: report.p50_latency_ms,
                p99_ms: report.p99_latency_ms,
                shed_fraction: report.shed_fraction,
                slo_met: outcome.met(),
            });
        }
        curves.push((name, points));
    }

    for (name, points) in &curves {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|pt| {
                vec![
                    format!("{:.0}", pt.rate_per_client),
                    format!("{:.0}", pt.offered_tps),
                    format!("{:.0}", pt.throughput_tps),
                    format!("{:.2}", pt.p50_ms),
                    format!("{:.2}", pt.p99_ms),
                    format!("{:.1}%", pt.shed_fraction * 100.0),
                    if pt.slo_met { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("Saturation knee: {name} (open loop, {} clients)", p.clients),
            &[
                "rate/client",
                "offered",
                "tx/s",
                "p50 ms",
                "p99 ms",
                "shed",
                "SLO",
            ],
            &rows,
        );
    }
    println!(
        "\nShape: throughput tracks the offered line until the knee, then plateaus \
         while p99 inflects and the admission bound sheds the excess."
    );

    let json = render_json(&slo, &p, &curves);
    match std::env::var("BASIL_KNEE_JSON") {
        Ok(path) => {
            if let Some(parent) = std::path::Path::new(&path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent).expect("create knee JSON dir");
                }
            }
            std::fs::write(&path, &json).expect("write knee JSON");
            eprintln!("[fig_knee] wrote {path}");
        }
        Err(_) => println!("\n{json}"),
    }
}

/// Hand-rolled JSON (the workspace carries no serde): one object per
/// workload, one point per swept rate.
fn render_json(slo: &LatencySlo, p: &RunParams, curves: &[(&str, Vec<KneePoint>)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"figure\": \"knee\",\n");
    out.push_str(&format!("  \"clients\": {},\n", p.clients));
    out.push_str(&format!(
        "  \"slo\": {{\"p50_ms\": {}, \"p99_ms\": {}}},\n",
        slo.p50_ms, slo.p99_ms
    ));
    out.push_str("  \"workloads\": [\n");
    for (wi, (name, points)) in curves.iter().enumerate() {
        out.push_str(&format!("    {{\"workload\": \"{name}\", \"points\": [\n"));
        for (pi, pt) in points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"rate_per_client_tps\": {}, \"offered_tps\": {:.1}, \
                 \"throughput_tps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
                 \"shed_fraction\": {:.4}, \"slo_met\": {}}}{}\n",
                pt.rate_per_client,
                pt.offered_tps,
                pt.throughput_tps,
                pt.p50_ms,
                pt.p99_ms,
                pt.shed_fraction,
                pt.slo_met,
                if pi + 1 == points.len() { "" } else { "," },
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if wi + 1 == curves.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
