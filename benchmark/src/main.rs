//! The repository's benchmark: two TCP-cluster workloads and four simulator
//! workloads, end-to-end metrics from an untraced run and a per-layer CPU
//! budget from a traced one. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! basil-benchmark                       # the whole suite, both passes
//! basil-benchmark --smoke               # the same, ~2 s per workload
//! basil-benchmark --workload sim-rwz --seed 7 --seconds 16 --trace 0
//! basil-benchmark --calibrate 10        # repeatability table (markdown);
//!                                       # with --workload, of that one only
//! ```

#![forbid(unsafe_code)]

mod layers;
mod metrics;
mod probe;
mod procfs;
mod report;
mod sim;
mod stats;
mod tcp;

use metrics::{RunResult, Values, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::time::Duration;

/// No workload may take longer than this, set-up and audit included; the
/// watchdog kills the children and exits non-zero when one does.
const HARD_DEADLINE: Duration = Duration::from_secs(170);

/// Where traces and scratch directories go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    calibrate: Option<usize>,
    emit_benchmark_json: bool,
    list: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("basil-benchmark: {problem}");
    eprintln!(
        "usage: basil-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]\n\
         \x20      basil-benchmark --smoke | --calibrate N | --list | --emit-benchmark-json\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        calibrate: None,
        emit_benchmark_json: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut number = |flag: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage(&format!("{flag} needs a whole number")))
        };
        match flag.as_str() {
            "--seed" => args.seed = number("--seed"),
            "--seconds" => args.seconds = number("--seconds").clamp(1, 60),
            "--trace" => args.trace = number("--trace") != 0,
            "--calibrate" => args.calibrate = Some(number("--calibrate") as usize),
            "--smoke" => args.smoke = true,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            "--list" => args.list = true,
            "--workload" => {
                let name = it
                    .next()
                    .unwrap_or_else(|| usage("--workload needs a name"));
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    usage(&format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

/// One pass over one workload: the run, its end-to-end view, and (traced
/// passes) the per-layer view.
struct Pass {
    e2e: report::EndToEnd,
    traced: Option<layers::Traced>,
    problems: Vec<String>,
}

impl Pass {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn result(&self) -> RunResult {
        let values = match &self.traced {
            Some(t) => t.values.clone(),
            None => self.e2e.values.clone(),
        };
        RunResult {
            correct: self.correct(),
            attempted: self.e2e.attempted,
            failed: self.e2e.failed,
            values,
        }
    }
}

/// Runs `workload` once under the hard deadline.
fn run_pass(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Pass, String> {
    let children = tcp::Children::default();
    let (finished_tx, finished_rx) = std::sync::mpsc::channel::<()>();
    let watchdog = {
        let children = children.clone();
        let name = workload.to_string();
        std::thread::spawn(move || {
            if finished_rx.recv_timeout(HARD_DEADLINE).is_err() {
                children.kill_all();
                eprintln!(
                    "basil-benchmark: {name} exceeded its hard deadline of {} s",
                    HARD_DEADLINE.as_secs()
                );
                std::process::exit(3);
            }
        })
    };
    let run = if workload.starts_with("tcp-") {
        tcp::run(workload, seed, seconds, trace, &children)
    } else {
        sim::run(workload, seed, seconds, trace)
    };
    children.kill_all();
    let _ = finished_tx.send(());
    let _ = watchdog.join();
    let run = run?;

    let e2e = run.end_to_end();
    let mut problems = run.problems.clone();
    if e2e.commits == 0 {
        problems.push("no transaction committed inside the window".to_string());
    }
    eprintln!(
        "[{workload}] seed {seed}, {seconds} s, trace {}: {} commits in the window; latency percentiles are the median of {} slices of ~{} samples ({} beyond each p95); {} attempted, {} failed",
        u8::from(trace),
        e2e.commits,
        probe::SLICES,
        e2e.commits / probe::SLICES as u64,
        e2e.beyond_p95,
        e2e.attempted,
        e2e.failed
    );
    let per_slice: Vec<String> = run
        .commits_per_slice()
        .iter()
        .zip(&run.slice_cpu)
        .map(|(c, cpu)| {
            format!(
                "{c}/{:.0}us",
                cpu.total_ns() as f64 / 1e3 / (*c).max(1) as f64
            )
        })
        .collect();
    eprintln!(
        "[{workload}] commits/cpu-per-commit by slice: {}",
        per_slice.join(" ")
    );
    let traced = if trace {
        let traced = layers::per_layer(&run, &e2e)?;
        let path = layers::write_trace(&run).map_err(|e| format!("writing the trace: {e}"))?;
        eprintln!("[{workload}] spans written to {}", path.display());
        Some(traced)
    } else {
        None
    };
    for p in &problems {
        eprintln!("[{workload}] INCORRECT: {p}");
    }
    Ok(Pass {
        e2e,
        traced,
        problems,
    })
}

/// The driver's invocation: one workload, one pass, result line last.
fn single(args: &Args, workload: &str) -> i32 {
    let pass = match run_pass(workload, args.seed, args.seconds, args.trace) {
        Ok(pass) => pass,
        Err(e) => {
            eprintln!("basil-benchmark: {workload} failed: {e}");
            return 1;
        }
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let result = pass.result();
    metrics::print_table(
        &format!(
            "{workload} ({})",
            if args.trace {
                "per layer"
            } else {
                "end to end"
            }
        ),
        defs,
        &result.values,
    );
    if let Some(traced) = &pass.traced {
        layers::print_budget(workload, traced);
    }
    println!("{}", result.to_json(defs));
    i32::from(!pass.correct())
}

/// Every workload, untraced then traced.
fn suite(seed: u64, seconds: u64) -> i32 {
    let mut failures = 0;
    for w in WORKLOADS {
        println!("\n#### {} — {}", w.name, w.why);
        for trace in [false, true] {
            match run_pass(w.name, seed, seconds, trace) {
                Ok(pass) => {
                    failures += i32::from(!pass.correct());
                    match &pass.traced {
                        None => metrics::print_table(
                            &format!("{}: end to end (untraced run)", w.name),
                            END_TO_END,
                            &pass.e2e.values,
                        ),
                        Some(traced) => {
                            metrics::print_table(
                                &format!("{}: per layer (traced run)", w.name),
                                PER_LAYER,
                                &traced.values,
                            );
                            layers::print_budget(w.name, traced);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("basil-benchmark: {} failed: {e}", w.name);
                    failures += 1;
                }
            }
        }
    }
    if failures == 0 {
        println!("\nall workloads correct");
    }
    i32::from(failures > 0)
}

/// Repeats every workload `n` times untraced, each time with another seed,
/// and prints per metric x workload the median, quartiles and spread, then
/// per metric the bound that follows: the larger of 5% and twice the widest
/// spread, capped at the contract's 25%.
fn calibrate(n: usize, only: Option<&str>, first_seed: u64, seconds: u64) -> i32 {
    if n < 5 {
        usage("--calibrate needs at least 5 repetitions");
    }
    let names: Vec<(&str, &str)> = END_TO_END
        .iter()
        .map(|d| (d.name, d.unit))
        .chain(metrics::DEMOTED.iter().map(|name| {
            let def = PER_LAYER.iter().find(|d| d.name == *name);
            (*name, def.map_or("", |d| d.unit))
        }))
        .collect();
    let mut widest: Values = Values::new();
    println!("{n} runs per workload, {seconds} s each, seeds {first_seed}..\n");
    println!("| workload | metric | unit | median | q1 | q3 | spread (IQR/median) |");
    println!("|---|---|---|---|---|---|---|");
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut samples: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for i in 0..n {
            match run_pass(w.name, first_seed + i as u64, seconds, false) {
                Ok(pass) if pass.correct() => {
                    for (name, _) in &names {
                        samples.entry(name).or_default().push(pass.e2e.values[name]);
                    }
                }
                Ok(_) => return 1,
                Err(e) => {
                    eprintln!("basil-benchmark: {} failed: {e}", w.name);
                    return 1;
                }
            }
        }
        for (name, unit) in &names {
            let v = &samples[name];
            let (q1, q2, q3) = stats::quartiles(v);
            let spread = stats::spread(v);
            println!(
                "| {} | {name} | {unit} | {q2:.4} | {q1:.4} | {q3:.4} | {:.2}% |",
                w.name,
                spread * 100.0
            );
            let slot = widest.entry(name).or_insert(0.0);
            *slot = slot.max(spread);
        }
    }
    println!("\n| metric | widest spread | max(5%, 2 x spread), capped at 25% | bound in BENCHMARK.json |");
    println!("|---|---|---|---|");
    for (name, _) in &names {
        let spread = widest[name];
        let bound = END_TO_END
            .iter()
            .find(|d| d.name == *name)
            .map_or("none (per-layer)".to_string(), |d| {
                format!("{:.0}%", d.bound * 100.0)
            });
        println!(
            "| {name} | {:.2}% | {:.1}% | {bound} |",
            spread * 100.0,
            (2.0 * spread).clamp(0.05, 0.25) * 100.0,
        );
    }
    0
}

fn main() {
    let args = parse_args();
    let code = if args.emit_benchmark_json {
        print!("{}", metrics::benchmark_json());
        0
    } else if args.list {
        metrics::print_definitions();
        0
    } else if let Some(n) = args.calibrate {
        calibrate(n, args.workload.as_deref(), args.seed, args.seconds)
    } else if args.smoke {
        suite(args.seed, 2)
    } else if let Some(workload) = args.workload.clone() {
        single(&args, &workload)
    } else {
        suite(args.seed, args.seconds)
    };
    std::process::exit(code);
}
