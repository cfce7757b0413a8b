//! The benchmark's vocabulary: workloads, metric definitions (name, unit,
//! direction, regression bound, and the end-to-end metric a layer metric is
//! expected to move), and the JSON the driver reads.
//!
//! This table is the single source of truth. `BENCHMARK.json` at the root of
//! the repository is `benchmark_json()` written to a file; a unit test keeps
//! the two identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one run measures, in seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(&self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload and why it exists.
pub struct WorkloadDef {
    /// The `--workload` argument.
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it, so that the driver compares its
    /// end-to-end metrics between commits. The TCP workloads are not listed:
    /// eight processes on two cores of a shared host do not repeat within the
    /// 25% a bound may be (CALIBRATION.md). They run in the suite, audit
    /// their histories and feed the per-layer metrics all the same.
    pub listed: bool,
}

/// One metric.
pub struct MetricDef {
    /// The name printed and compared.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric may
    /// worsen before a change counts as a regression (see CALIBRATION.md).
    pub bound: f64,
    /// Per-layer: the end-to-end metric (and workloads) it should move.
    /// End-to-end: what a reader should know about the number.
    pub note: &'static str,
}

/// The six workloads, in suite order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "tcp-rwu",
        why: "6 basil-node processes on localhost TCP, 2 closed-loop clients, RW-U 2r/2w, 100k keys: uncontended, CPU-saturated; wire/conn/runtime, real HMAC-SHA-256 and the WAL file dominate (wall clock)",
        listed: false,
    },
    WorkloadDef {
        name: "tcp-retwis-open",
        why: "same TCP cluster, Retwis under open-loop Poisson arrivals at 40% of closed-loop capacity: below the knee, so latency floors (timer ticks, wake-ups) show; read-heavy, larger messages (wall clock)",
        listed: false,
    },
    WorkloadDef {
        name: "sim-rwu",
        why: "serial simulator, 96 closed-loop clients, RW-U 2r/2w, 1M keys: message plane, core handlers, simnet scheduler; no sockets, real signatures, WAL file, so net/crypto changes predict no move (sim clock)",
        listed: true,
    },
    WorkloadDef {
        name: "sim-rwu-hmac",
        why: "sim-rwu with every signature really computed and verified (HMAC-SHA-256, as the TCP deployment does) instead of charged to the simulated clock: the workload a crypto change moves (sim clock)",
        listed: true,
    },
    WorkloadDef {
        name: "sim-rwz",
        why: "serial simulator, 96 clients, RW-Z Zipf 0.9 2r/2w: contention, so aborts, retries, dependency waits and the store's slow-path scans, which the RW-U workloads bypass (sim clock)",
        listed: true,
    },
    WorkloadDef {
        name: "sim-byz30",
        why: "serial simulator, RW-Z, 48 clients, 30% stall-late Byzantine, one replica amnesia-crashed at 1/3, restarted at 1/2 of the run: the only workload on fallback, WAL replay and catch-up (sim clock)",
        listed: true,
    },
];

/// Metrics a user of the system sees; reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        note: "launch to first commit, wall clock: on sim-* the fastest of the run's identical set-ups (one per repetition), on tcp-* the median of three launches",
    },
    MetricDef {
        name: "commit_tps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        note: "committed transactions per second of the workload's clock, median of ten equal slices of the window; on sim-* a deterministic model output",
    },
    MetricDef {
        name: "cpu_us_per_commit",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        note: "the number an optimisation moves. sim-*: time of the simulator's thread per commit, keeping for every gap between two commits the fastest of six (sim-rwu: sixteen) identical repetitions. tcp-*: user+sys CPU of every replica process and the benchmark's client threads per commit, median of the ten slices",
    },
    MetricDef {
        name: "commit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
        note: "median commit latency from start (closed loop) or arrival (open loop) to durable decision, workload's clock, median slice; on sim-* a deterministic model output",
    },
    MetricDef {
        name: "commit_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        note: "95th percentile of commit latency, median slice (at least ten samples beyond it in a slice of every workload)",
    },
    MetricDef {
        name: "fast_path_fraction",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
        note: "share of decisions reached in one round trip (no ST2)",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        note,
    }
}

use Better::{Higher, Lower};

/// End-to-end candidates that carry no bound (see the last rows of
/// [`PER_LAYER`]); calibration still records how they repeat.
pub const DEMOTED: [&str; 3] = ["commit_p99_ms", "abort_rate", "failed_fraction"];

/// Metrics of single layers; reported by every traced run. A metric that
/// does not apply to a workload (a socket counter on the simulator) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // -- crypto: timed calls of basil_crypto's public functions ------------
    layer("crypto.sha256_ns_64B", "ns", Lower, "cpu_us_per_commit, commit_tps on tcp-*; none on sim-* (simulated signatures)"),
    layer("crypto.sha256_mb_s", "MB/s", Higher, "cpu_us_per_commit on tcp-* (frame checksums, transaction ids)"),
    layer("crypto.hmac_ns", "ns", Lower, "cpu_us_per_commit on tcp-*"),
    layer("crypto.sign_ns", "ns", Lower, "cpu_us_per_commit on tcp-*"),
    layer("crypto.verify_uncached_ns", "ns", Lower, "cpu_us_per_commit on tcp-*"),
    layer("crypto.verify_cached_ns", "ns", Lower, "cpu_us_per_commit on tcp-*"),
    layer("crypto.batch_seal_ns_per_reply", "ns", Lower, "cpu_us_per_commit on tcp-* once replies are batched"),
    // -- store: MvtsoStore fed the workload family's own transactions ------
    layer("store.prepare_commit_ns_rwu", "ns", Lower, "cpu_us_per_commit on *-rwu (little: the fast check answers)"),
    layer("store.prepare_commit_ns_rwz", "ns", Lower, "cpu_us_per_commit on sim-rwz, sim-byz30"),
    layer("store.read_ns", "ns", Lower, "cpu_us_per_commit everywhere, most on tcp-retwis-open"),
    layer("store.fast_check_fraction", "ratio", Higher, "cpu_us_per_commit on sim-rwz, sim-byz30"),
    layer("store.gc_sweep_ns", "ns", Lower, "none today (GC is off in every workload); guards a later change"),
    // -- wal ----------------------------------------------------------------
    layer("wal.append_ns", "ns", Lower, "cpu_us_per_commit on tcp-*"),
    layer("wal.bytes_per_commit", "B", Lower, "cpu_us_per_commit on tcp-* (file writes); per replica"),
    layer("wal.appends_per_commit", "count", Lower, "cpu_us_per_commit on tcp-*; per replica"),
    layer("wal.recover_ms_per_10k", "ms", Lower, "setup_s and recovery on sim-byz30"),
    // -- wire: over messages captured at the client seam --------------------
    layer("wire.encode_ns_per_msg", "ns", Lower, "cpu_us_per_commit on tcp-*, most on tcp-retwis-open; none on sim-*"),
    layer("wire.decode_ns_per_msg", "ns", Lower, "cpu_us_per_commit on tcp-*; none on sim-*"),
    layer("wire.bytes_per_commit", "B", Lower, "cpu_us_per_commit on tcp-* (client side, both directions)"),
    layer("wire.msgs_per_commit", "count", Lower, "cpu_us_per_commit everywhere (client side, both directions)"),
    // -- net: two bare ConnManagers, no protocol ----------------------------
    layer("net.echo_rtt_p50_us", "us", Lower, "commit_p50_ms on tcp-retwis-open"),
    layer("net.flood_frames_per_s", "1/s", Higher, "commit_tps on tcp-rwu"),
    layer("net.frames_shed", "count", Lower, "failed_fraction, commit_p95_ms on tcp-* (client side)"),
    layer("net.reconnect_attempts", "count", Lower, "setup_s on tcp-* (client side)"),
    layer("net.malformed_frames", "count", Lower, "correctness guard on tcp-* (client side)"),
    // -- core: the client behind the Actor seam, replica 0 replayed ---------
    layer("core.client_cpu_us_per_commit", "us", Lower, "cpu_us_per_commit everywhere"),
    layer("core.client_on_read_reply_us", "us", Lower, "cpu_us_per_commit, commit_p50_ms everywhere"),
    layer("core.client_on_st1_reply_us", "us", Lower, "cpu_us_per_commit, commit_p50_ms everywhere"),
    layer("core.client_on_st2_reply_us", "us", Lower, "cpu_us_per_commit on sim-rwz, sim-byz30"),
    layer("core.client_on_writeback_us", "us", Lower, "cpu_us_per_commit on sim-byz30"),
    layer("core.replica_cpu_us_per_commit", "us", Lower, "cpu_us_per_commit everywhere (one replica; all handlers and timers)"),
    layer("core.replica_on_read_us", "us", Lower, "cpu_us_per_commit everywhere"),
    layer("core.replica_on_st1_us", "us", Lower, "cpu_us_per_commit everywhere"),
    layer("core.replica_on_st2_us", "us", Lower, "cpu_us_per_commit on sim-rwz, sim-byz30"),
    layer("core.replica_on_writeback_us", "us", Lower, "cpu_us_per_commit everywhere"),
    layer("core.phase_execute_ms", "ms", Lower, "commit_p50_ms, commit_p95_ms"),
    layer("core.phase_prepare_ms", "ms", Lower, "commit_p50_ms, commit_p95_ms"),
    layer("core.phase_st2_ms", "ms", Lower, "commit_p95_ms on contended workloads"),
    layer("core.phase_writeback_ms", "ms", Lower, "commit_tps (the handler that decides, writes back and starts the next transaction)"),
    // -- simnet -------------------------------------------------------------
    layer("simnet.sched_ns_per_event", "ns", Lower, "cpu_us_per_commit on sim-*; none on tcp-*"),
    layer("simnet.events_per_commit", "count", Lower, "cpu_us_per_commit on sim-*"),
    layer("simnet.msgs_per_commit", "count", Lower, "cpu_us_per_commit on sim-*"),
    layer("simnet.queue_wait_ms", "ms", Lower, "commit_p50_ms on sim-* (mean wait for a free simulated core)"),
    // -- proc: where the CPU of a tcp-* commit goes -------------------------
    layer("proc.replica_cpu_share", "ratio", Lower, "locates cpu_us_per_commit on tcp-*"),
    layer("proc.client_cpu_share", "ratio", Lower, "locates cpu_us_per_commit on tcp-*"),
    layer("proc.sys_cpu_fraction", "ratio", Lower, "cpu_us_per_commit on tcp-* (kernel share: sockets, file writes, wake-ups)"),
    layer("proc.ctx_switches_per_commit", "count", Lower, "cpu_us_per_commit, commit_p50_ms on tcp-*"),
    layer("proc.peak_rss_mb", "MiB", Lower, "memory guard"),
    // -- guards: the generator and the tracing are not the bottleneck -------
    layer("workloads.gen_ns_per_tx", "ns", Lower, "guard: must stay far below cpu_us_per_commit"),
    layer("loadgen.late_p99_ms", "ms", Lower, "guard on tcp-retwis-open: how late arrivals fired"),
    layer("trace.overhead_fraction", "ratio", Lower, "guard: cpu_us_per_commit of traced over untraced slices, minus one"),
    layer("budget.unattributed_fraction", "ratio", Lower, "share of cpu_us_per_commit no layer row explains"),
    // -- demoted from end-to-end (see CALIBRATION.md) -----------------------
    layer("commit_p99_ms", "ms", Lower, "99th percentile of commit latency, median slice; a deterministic model output on sim-*, yet it moves about 40% from seed to seed on the contended workloads (and 13-48% from run to run on tcp-*), so it carries no bound"),
    layer("abort_rate", "ratio", Lower, "aborted attempts over attempts; 0 on uncontended workloads, so it cannot carry a relative bound"),
    layer("failed_fraction", "ratio", Lower, "shed plus never-decided over offered; 0 by construction on every workload"),
];

/// The metrics of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one invocation reports.
pub struct RunResult {
    /// Audits passed and every child behaved.
    pub correct: bool,
    /// Transactions offered in the window.
    pub attempted: u64,
    /// Of those, how many were shed or never decided.
    pub failed: u64,
    /// Values for every definition in the reported set.
    pub values: Values,
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits. Non-finite values have no JSON form;
/// they would mean a broken measurement, so they abort the run.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    let mut s = format!("{v}");
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    s
}

impl RunResult {
    /// The one-line JSON object the driver parses: exactly the metrics in
    /// `defs`, each with its value and unit.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> =
            defs.iter()
                .map(|d| {
                    let v =
                        self.values.get(d.name).copied().unwrap_or_else(|| {
                            panic!("run produced no value for metric {}", d.name)
                        });
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        json_string(d.name),
                        json_number(v),
                        json_string(d.unit)
                    )
                })
                .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let listed: Vec<&WorkloadDef> = WORKLOADS.iter().filter(|w| w.listed).collect();
    for (i, w) in listed.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_string(w.name),
            json_string(w.why),
            if i + 1 < listed.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str()),
            json_number(m.bound),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints `values` as an aligned table with unit, direction and bound.
pub fn print_table(title: &str, defs: &[MetricDef], values: &Values) {
    println!("\n== {title} ==");
    let width = defs.iter().map(|d| d.name.len()).max().unwrap_or(0);
    for d in defs {
        let Some(v) = values.get(d.name) else {
            continue;
        };
        let bound = if d.bound > 0.0 {
            format!("  bound {:>4.0}%", d.bound * 100.0)
        } else {
            String::new()
        };
        println!(
            "  {:<width$}  {:>14.4} {:<6} {:<6}{}",
            d.name,
            v,
            d.unit,
            d.better.as_str(),
            bound
        );
    }
}

/// Prints every workload and metric definition as the markdown tables of
/// the README (`--list`).
pub fn print_definitions() {
    println!("| workload | in `BENCHMARK.json` | why it exists |\n|---|---|---|");
    for w in WORKLOADS {
        println!(
            "| `{}` | {} | {} |",
            w.name,
            if w.listed { "yes" } else { "no" },
            w.why
        );
    }
    println!("\n| end-to-end metric | unit | better | bound | what it is |\n|---|---|---|---|---|");
    for m in END_TO_END {
        println!(
            "| `{}` | {} | {} | {:.0}% | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.note
        );
    }
    println!("\n| per-layer metric | unit | better | end-to-end metric it should move |\n|---|---|---|---|");
    for m in PER_LAYER {
        println!(
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn definitions_respect_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.listed).count()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = std::collections::HashSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defs = &END_TO_END[..2];
        let mut values = Values::new();
        values.insert("setup_s", 0.8127);
        values.insert("commit_tps", 1000.0);
        values.insert("ignored", 1.0);
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            values,
        };
        assert_eq!(
            r.to_json(defs),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"commit_tps\": {\"value\": 1000.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(1e-9), "0.000000001");
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_abort() {
        let _ = json_number(f64::NAN);
    }
}
