//! Aggregated run reports: throughput, latency, commit rate.
//!
//! A [`Snapshot`] is cheap: it folds each client's counters and its
//! streaming latency histogram (`basil_common::LatencyHistogram`) into one
//! aggregate — no latency vector is ever cloned. A measurement window is
//! the difference of two snapshots; window latencies are the bucket-wise
//! histogram difference (valid because per-client histograms only grow), so
//! warmup exclusion costs O(buckets) instead of the multiset diff over all
//! samples the harness used to perform.

use basil_common::{Duration, LatencyHistogram};
use basil_store::SessionStats;
use std::collections::HashMap;

/// A snapshot of aggregate client counters at one point in simulated time.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Committed transactions across correct clients.
    pub committed: u64,
    /// Aborted (retried) attempts across correct clients.
    pub aborted_attempts: u64,
    /// Fast-path decisions.
    pub fast_path: u64,
    /// Slow-path (ST2) decisions.
    pub slow_path: u64,
    /// Fallback recoveries started.
    pub fallbacks: u64,
    /// Merged streaming histogram of correct clients' commit latencies.
    pub latency: LatencyHistogram,
    /// Committed per workload label.
    pub per_label: HashMap<&'static str, u64>,
    /// Number of correct (non-Byzantine) clients contributing.
    pub correct_clients: u32,
    /// Committed transactions by Byzantine clients (their successful,
    /// protocol-following commits).
    pub byz_committed: u64,
    /// Transactions issued under a Byzantine strategy.
    pub faulty_issued: u64,
    /// Transactions the workload offered (correct clients). Equals starts
    /// under closed-loop driving; counts every Poisson arrival — admitted or
    /// shed — under open-loop driving.
    pub offered: u64,
    /// Open-loop arrivals dropped at the admission bound.
    pub shed: u64,
}

impl Snapshot {
    /// Folds in one correct client's session counters — the part of a
    /// client's statistics every protocol shares.
    pub fn add_session(&mut self, stats: &SessionStats) {
        self.correct_clients += 1;
        self.committed += stats.committed;
        self.aborted_attempts += stats.aborted_attempts;
        self.offered += stats.offered;
        for (label, count) in &stats.per_label {
            *self.per_label.entry(label).or_insert(0) += count;
        }
        self.latency.merge(&stats.latency);
    }
}

/// Throughput/latency report over a measurement window.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Length of the measurement window.
    pub window: Duration,
    /// Transactions committed by correct clients in the window.
    pub committed: u64,
    /// Aborted attempts by correct clients in the window.
    pub aborted_attempts: u64,
    /// Correct-client throughput in transactions per second.
    pub throughput_tps: f64,
    /// Offered load in transactions per second (see [`Snapshot::offered`]):
    /// the transactions correct clients started under closed-loop driving,
    /// every arrival, admitted or shed, under open-loop driving.
    pub offered_tps: f64,
    /// Throughput per correct client (the metric of Figure 7).
    pub throughput_per_correct_client: f64,
    /// Mean commit latency in milliseconds (exact: computed from the
    /// histograms' exact sums).
    pub mean_latency_ms: f64,
    /// Median commit latency in milliseconds (histogram estimate, within
    /// one log₂ sub-bucket — ≤3.1% — of the exact order statistic).
    pub p50_latency_ms: f64,
    /// 99th percentile commit latency in milliseconds (same resolution as
    /// the median).
    pub p99_latency_ms: f64,
    /// committed / (committed + aborted attempts).
    pub commit_rate: f64,
    /// Fraction of decisions that used the single-round-trip fast path.
    pub fast_path_fraction: f64,
    /// Decisions that needed the ST2 logging stage.
    pub slow_path_decisions: u64,
    /// Fallback recoveries started during the window.
    pub fallbacks: u64,
    /// Fraction of processed transactions that were faulty (Byzantine).
    pub faulty_fraction: f64,
    /// Committed count per workload label.
    pub per_label: HashMap<&'static str, u64>,
}

impl RunReport {
    /// Computes the report for the window between two snapshots.
    pub fn between(start: &Snapshot, end: &Snapshot, window: Duration) -> RunReport {
        let committed = end.committed.saturating_sub(start.committed);
        let aborted = end.aborted_attempts.saturating_sub(start.aborted_attempts);
        let secs = window.as_secs_f64().max(1e-9);
        // Window latencies: each client's histogram only ever grows, so the
        // merged end histogram minus the merged start histogram is exactly
        // the multiset of samples recorded inside the window.
        let latencies = end.latency.diff(&start.latency);
        let fast = end.fast_path.saturating_sub(start.fast_path);
        let slow = end.slow_path.saturating_sub(start.slow_path);
        let decisions = fast + slow;
        let mut per_label = HashMap::new();
        for (label, count) in &end.per_label {
            let before = start.per_label.get(label).copied().unwrap_or(0);
            per_label.insert(*label, count.saturating_sub(before));
        }
        let correct_total = committed + aborted;
        let byz = end.faulty_issued.saturating_sub(start.faulty_issued);
        let processed = correct_total + byz;
        let offered = end.offered.saturating_sub(start.offered);
        RunReport {
            window,
            committed,
            aborted_attempts: aborted,
            throughput_tps: committed as f64 / secs,
            offered_tps: offered as f64 / secs,
            throughput_per_correct_client: if end.correct_clients == 0 {
                0.0
            } else {
                committed as f64 / secs / end.correct_clients as f64
            },
            mean_latency_ms: latencies.mean_ms(),
            p50_latency_ms: latencies.percentile_ms(0.50),
            p99_latency_ms: latencies.percentile_ms(0.99),
            commit_rate: if correct_total == 0 {
                1.0
            } else {
                committed as f64 / correct_total as f64
            },
            fast_path_fraction: if decisions == 0 {
                1.0
            } else {
                fast as f64 / decisions as f64
            },
            slow_path_decisions: slow,
            fallbacks: end.fallbacks.saturating_sub(start.fallbacks),
            faulty_fraction: if processed == 0 {
                0.0
            } else {
                byz as f64 / processed as f64
            },
            per_label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for s in samples {
            h.record(*s);
        }
        h
    }

    /// Tolerance of a percentile estimate near `value_ns`, in ms.
    fn tol_ms(value_ns: u64) -> f64 {
        LatencyHistogram::bucket_width_at(value_ns) as f64 / 1e6
    }

    #[test]
    fn report_between_snapshots() {
        let start = Snapshot {
            committed: 100,
            aborted_attempts: 10,
            fast_path: 90,
            slow_path: 20,
            latency: hist(&[1_000_000, 2_000_000]),
            correct_clients: 4,
            ..Default::default()
        };
        let end = Snapshot {
            committed: 300,
            aborted_attempts: 30,
            fast_path: 270,
            slow_path: 40,
            latency: hist(&[
                1_000_000, 2_000_000, 3_000_000, 5_000_000, 7_000_000, 9_000_000,
            ]),
            correct_clients: 4,
            ..Default::default()
        };
        let r = RunReport::between(&start, &end, Duration::from_secs(2));
        assert_eq!(r.committed, 200);
        assert_eq!(r.aborted_attempts, 20);
        assert!((r.throughput_tps - 100.0).abs() < 1e-9);
        assert!((r.throughput_per_correct_client - 25.0).abs() < 1e-9);
        // Window latencies are the last four samples: 3, 5, 7, 9 ms. The
        // mean is exact (histograms carry exact sums); the percentiles are
        // histogram estimates, exact to within one bucket width.
        assert!((r.mean_latency_ms - 6.0).abs() < 1e-9);
        assert!(r.p50_latency_ms >= 3.0 - tol_ms(3_000_000));
        assert!(r.p50_latency_ms <= 7.0 + tol_ms(7_000_000));
        assert!((r.p99_latency_ms - 9.0).abs() <= tol_ms(9_000_000));
        assert!((r.commit_rate - 200.0 / 220.0).abs() < 1e-9);
        // 180 fast vs 20 slow decisions in the window.
        assert!((r.fast_path_fraction - 0.9).abs() < 1e-9);
    }

    #[test]
    fn window_latencies_diff_correctly_across_interleaved_clients() {
        // With two clients the warmup samples are not a prefix of any
        // per-client vector ordering; histogram subtraction removes exactly
        // one instance of every warmup sample regardless of interleaving.
        let start = Snapshot {
            // c0 warmup = 1 ms, c1 warmup = 2 ms.
            latency: hist(&[1_000_000, 2_000_000]),
            correct_clients: 2,
            ..Default::default()
        };
        let end = Snapshot {
            // [c0 warmup, c0 window, c1 warmup, c1 window].
            latency: hist(&[1_000_000, 3_000_000, 2_000_000, 5_000_000]),
            correct_clients: 2,
            ..Default::default()
        };
        let r = RunReport::between(&start, &end, Duration::from_secs(1));
        // Window samples are 3 ms and 5 ms: mean 4 ms (exact), p99 ~5 ms.
        assert!(
            (r.mean_latency_ms - 4.0).abs() < 1e-9,
            "mean {}",
            r.mean_latency_ms
        );
        assert!((r.p99_latency_ms - 5.0).abs() <= tol_ms(5_000_000));
    }

    #[test]
    fn offered_load_is_the_window_difference_per_second() {
        let start = Snapshot {
            offered: 50,
            ..Default::default()
        };
        let end = Snapshot {
            committed: 80,
            offered: 150,
            ..Default::default()
        };
        let r = RunReport::between(&start, &end, Duration::from_secs(1));
        assert!((r.offered_tps - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_well_defined() {
        let s = Snapshot::default();
        let r = RunReport::between(&s, &s, Duration::from_secs(1));
        assert_eq!(r.committed, 0);
        assert_eq!(r.throughput_tps, 0.0);
        assert_eq!(r.mean_latency_ms, 0.0);
        assert_eq!(r.commit_rate, 1.0);
        assert_eq!(r.faulty_fraction, 0.0);
    }
}
