//! From what a workload run recorded to the end-to-end metrics.

use crate::metrics::Values;
use crate::probe::{ClientLog, Ev, SLICES};
use crate::stats;
use basil_core::BasilConfig;

/// CPU used during one slice of the window, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSplit {
    /// User + kernel time of the replica processes (tcp-* only).
    pub replicas_ns: u64,
    /// User + kernel time of the benchmark process: the in-process clients
    /// on tcp-*, the whole simulator on sim-*.
    pub bench_ns: u64,
    /// The kernel-mode part of the two above (0 where it was not split).
    pub sys_ns: u64,
}

impl CpuSplit {
    /// All CPU of the slice.
    pub fn total_ns(&self) -> u64 {
        self.replicas_ns + self.bench_ns
    }
}

/// Everything one run of one workload recorded.
pub struct WorkloadRun {
    /// Workload name.
    pub workload: String,
    /// The `--seed` it ran with.
    pub seed: u64,
    /// One log per correct client.
    pub logs: Vec<ClientLog>,
    /// Window start on the workload's clock, nanoseconds.
    pub window_start_ns: u64,
    /// Window length, nanoseconds.
    pub window_ns: u64,
    /// Wall-clock seconds from launch to first commit, one per set-up.
    pub setup_s: Vec<f64>,
    /// CPU per slice of the window (`SLICES` entries).
    pub slice_cpu: Vec<CpuSplit>,
    /// Simulator runs: wall-clock nanoseconds between consecutive commits in
    /// the window, one series per repetition of the (deterministic)
    /// simulation. Empty on tcp-*.
    pub commit_gap_ns: Vec<Vec<u64>>,
    /// Why the run is not correct (audit, liveness, child failures); empty
    /// when it is.
    pub problems: Vec<String>,
    /// Layer counters the runner read off the system itself.
    pub layer: Values,
    /// Protocol configuration of the deployment (for the replica replay).
    pub replay_config: BasilConfig,
    /// Clients in the deployment (key-registry derivation for the replay).
    pub deployment_clients: u32,
}

/// The end-to-end view of a run.
pub struct EndToEnd {
    /// Every end-to-end metric by name, plus the candidates reported with
    /// the per-layer set (`metrics::DEMOTED`).
    pub values: Values,
    /// Commits in the window plus failures.
    pub attempted: u64,
    /// Shed arrivals in the window plus transactions stuck at the end.
    pub failed: u64,
    /// Commits in the window.
    pub commits: u64,
    /// How many latency samples of an average slice lie beyond its p95.
    pub beyond_p95: usize,
}

/// Simulator runs: microseconds of the simulator's thread per commit, keeping
/// for every gap between two commits the repetition that ran it fastest.
/// Repetitions of a seed execute the same instructions, so what differs
/// between them is the host (preemption, cache and memory contention from its
/// other guests), and that only ever adds time: the minimum is the least
/// disturbed observation of the gap, and a gap reads high only if every
/// repetition of it was disturbed.
pub fn undisturbed_us_per_commit(repetitions: &[Vec<u64>]) -> f64 {
    let gaps = repetitions.iter().map(Vec::len).min().unwrap_or(0);
    let total_ns: u64 = (0..gaps)
        .map(|i| repetitions.iter().map(|rep| rep[i]).min().unwrap_or(0))
        .sum();
    total_ns as f64 / 1e3 / gaps.max(1) as f64
}

impl WorkloadRun {
    /// End of the window.
    pub fn window_end_ns(&self) -> u64 {
        self.window_start_ns + self.window_ns
    }

    fn in_window(&self, t: u64) -> bool {
        t >= self.window_start_ns && t < self.window_end_ns()
    }

    /// Commit instants inside the window, unsorted.
    pub fn commit_times(&self) -> Vec<u64> {
        self.logs
            .iter()
            .flat_map(|l| &l.events)
            .filter(|(t, e)| matches!(e, Ev::Commit { .. }) && self.in_window(*t))
            .map(|(t, _)| *t)
            .collect()
    }

    /// Commits per slice of the window.
    pub fn commits_per_slice(&self) -> Vec<u64> {
        stats::slice_counts(
            &self.commit_times(),
            self.window_start_ns,
            self.window_end_ns(),
            SLICES,
        )
    }

    /// CPU microseconds per commit over the slices `keep` selects.
    pub fn cpu_us_per_commit(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let commits = self.commits_per_slice();
        let (mut cpu_ns, mut n) = (0u64, 0u64);
        for (i, slice) in self.slice_cpu.iter().enumerate() {
            if keep(i) {
                cpu_ns += slice.total_ns();
                n += commits.get(i).copied().unwrap_or(0);
            }
        }
        cpu_ns as f64 / 1e3 / n.max(1) as f64
    }

    /// CPU microseconds per commit of each slice that saw a commit, and the
    /// median of those: a slow spell of the host (or one page-fault storm)
    /// moves a few slices, not the result.
    fn median_slice_cpu_us_per_commit(&self) -> f64 {
        let per_slice: Vec<f64> = self
            .commits_per_slice()
            .iter()
            .zip(&self.slice_cpu)
            .filter(|(commits, _)| **commits > 0)
            .map(|(commits, cpu)| cpu.total_ns() as f64 / 1e3 / *commits as f64)
            .collect();
        stats::median(&per_slice)
    }

    /// The `p`-quantile of commit latency (ms) within each slice of the
    /// window, for slices that saw a commit.
    fn slice_latency_percentiles(&self, p: f64) -> Vec<f64> {
        let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for (t, ev) in self.logs.iter().flat_map(|l| &l.events) {
            if let (Ev::Commit { latency_ns }, true) = (ev, self.in_window(*t)) {
                let i = ((*t - self.window_start_ns) as u128 * SLICES as u128
                    / self.window_ns as u128) as usize;
                by_slice[i.min(SLICES - 1)].push(*latency_ns as f64 / 1e6);
            }
        }
        by_slice
            .iter_mut()
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
                stats::percentile_sorted(s, p)
            })
            .collect()
    }

    /// Computes the end-to-end metrics.
    pub fn end_to_end(&self) -> EndToEnd {
        let mut latencies_ms = Vec::new();
        let (mut aborts, mut fast, mut slow, mut shed) = (0u64, 0u64, 0u64, 0u64);
        for (t, ev) in self.logs.iter().flat_map(|l| &l.events) {
            if !self.in_window(*t) {
                continue;
            }
            match ev {
                Ev::Commit { latency_ns } => latencies_ms.push(*latency_ns as f64 / 1e6),
                Ev::Abort => aborts += 1,
                Ev::Fast => fast += 1,
                Ev::Slow => slow += 1,
                Ev::Shed => shed += 1,
            }
        }
        let commits = latencies_ms.len() as u64;
        let stuck: u64 = self.logs.iter().map(|l| l.stuck).sum();
        let failed = shed + stuck;
        let attempted = commits + failed;

        let mut values = Values::new();
        // Set-ups of a simulator run are, like its repetitions, the same work
        // each time: the fastest is the one the host disturbed least. TCP
        // launches are not, so they report their median.
        values.insert(
            "setup_s",
            if self.commit_gap_ns.is_empty() {
                stats::median(&self.setup_s)
            } else {
                self.setup_s.iter().copied().fold(f64::INFINITY, f64::min)
            },
        );
        values.insert(
            "commit_tps",
            stats::slice_median_rate(
                &self.commit_times(),
                self.window_start_ns,
                self.window_end_ns(),
                SLICES,
            ),
        );
        // Percentiles per slice, then the median slice: the host's slow
        // spells (which are what a whole-window tail would report) move a
        // few slices, not the result.
        values.insert(
            "commit_p50_ms",
            stats::median(&self.slice_latency_percentiles(0.50)),
        );
        values.insert(
            "commit_p95_ms",
            stats::median(&self.slice_latency_percentiles(0.95)),
        );
        values.insert(
            "commit_p99_ms",
            stats::median(&self.slice_latency_percentiles(0.99)),
        );
        values.insert(
            "cpu_us_per_commit",
            if self.commit_gap_ns.is_empty() {
                self.median_slice_cpu_us_per_commit()
            } else {
                undisturbed_us_per_commit(&self.commit_gap_ns)
            },
        );
        values.insert(
            "fast_path_fraction",
            if fast + slow == 0 {
                1.0
            } else {
                fast as f64 / (fast + slow) as f64
            },
        );
        values.insert(
            "abort_rate",
            aborts as f64 / (aborts + commits).max(1) as f64,
        );
        values.insert("failed_fraction", failed as f64 / attempted.max(1) as f64);
        EndToEnd {
            values,
            attempted,
            failed,
            commits,
            beyond_p95: stats::samples_beyond(latencies_ms.len() / SLICES, 0.95),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(events: Vec<(u64, Ev)>, stuck: u64) -> WorkloadRun {
        let log = ClientLog {
            events,
            stuck,
            ..ClientLog::default()
        };
        WorkloadRun {
            workload: "test".into(),
            seed: 0,
            logs: vec![log],
            window_start_ns: 1_000_000_000,
            window_ns: 10_000_000_000,
            setup_s: vec![0.3, 0.1, 0.2],
            slice_cpu: vec![
                CpuSplit {
                    replicas_ns: 1_500_000,
                    bench_ns: 500_000,
                    sys_ns: 400_000,
                };
                SLICES
            ],
            commit_gap_ns: Vec::new(),
            problems: Vec::new(),
            layer: Values::new(),
            replay_config: BasilConfig::test_single_shard(),
            deployment_clients: 1,
        }
    }

    #[test]
    fn window_accounting() {
        let mut events = vec![(500_000_000, Ev::Commit { latency_ns: 9 })]; // warm-up
        for i in 0..100u64 {
            let t = 1_000_000_000 + i * 100_000_000; // ten per slice
            events.push((t, Ev::Fast));
            events.push((
                t,
                Ev::Commit {
                    latency_ns: (i + 1) * 1_000_000,
                },
            ));
        }
        events.push((2_000_000_000, Ev::Abort));
        events.push((2_000_000_000, Ev::Slow));
        events.push((3_000_000_000, Ev::Shed));
        events.push((11_000_000_000, Ev::Commit { latency_ns: 7 })); // after
        let run = run_with(events, 1);
        let e = run.end_to_end();
        assert_eq!(e.commits, 100);
        assert_eq!(e.failed, 2, "one shed + one stuck");
        assert_eq!(e.attempted, 102);
        assert_eq!(e.beyond_p95, 0, "ten samples per slice: none beyond p95");
        assert_eq!(e.values["setup_s"], 0.2);
        assert_eq!(e.values["commit_tps"], 10.0);
        // Slice i holds latencies 10i+1 ..= 10i+10 ms: its median is 10i+5.5,
        // and the median over slices 0..10 of that is 50.5.
        assert!((e.values["commit_p50_ms"] - 50.5).abs() < 1e-9);
        assert!((e.values["commit_p95_ms"] - 54.55).abs() < 1e-9);
        assert!((e.values["commit_p99_ms"] - 54.91).abs() < 1e-9);
        assert!((e.values["abort_rate"] - 1.0 / 101.0).abs() < 1e-12);
        assert!((e.values["fast_path_fraction"] - 100.0 / 101.0).abs() < 1e-12);
        // 10 slices x 2 ms CPU over 100 commits = 200 us each.
        assert!((e.values["cpu_us_per_commit"] - 200.0).abs() < 1e-9);
        assert!((run.cpu_us_per_commit(crate::probe::TraceCtl::traced_slice) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn every_commit_keeps_its_least_disturbed_repetition() {
        let quiet = vec![1_000u64; 6]; // 1 us per commit
        let mut first = quiet.clone();
        let mut second = quiet.clone();
        first[1] *= 9; // a preemption
        first[2] *= 2;
        second[2] *= 3; // disturbed in both: the smaller survives
        second[5] *= 4;
        let reps = [first, second];
        assert!((undisturbed_us_per_commit(&reps[..1]) - 15.0 / 6.0).abs() < 1e-9);
        assert!((undisturbed_us_per_commit(&reps) - 7.0 / 6.0).abs() < 1e-9);
        assert_eq!(undisturbed_us_per_commit(&[]), 0.0);
        // A simulator run reports that, not its slices.
        let mut run = run_with(vec![(1_500_000_000, Ev::Commit { latency_ns: 1 })], 0);
        run.commit_gap_ns = vec![quiet];
        let e = run.end_to_end();
        assert!((e.values["cpu_us_per_commit"] - 1.0).abs() < 1e-9);
        assert_eq!(e.values["setup_s"], 0.1, "and its fastest set-up");
    }
}
