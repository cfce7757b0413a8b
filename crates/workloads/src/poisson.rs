//! Open-loop Poisson arrivals.
//!
//! The paper's throughput-vs-latency curves are produced by *open-loop*
//! load: transactions arrive according to a Poisson process at a configured
//! rate, independently of how fast the system completes them. This module
//! wraps any closed-loop [`TxGenerator`] with seeded exponential
//! inter-arrival times; the driving client schedules arrivals on the
//! simulated clock, so runs are bit-deterministic.

use basil_common::{Duration, TxGenerator, TxProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Wraps a transaction generator with Poisson (exponential inter-arrival)
/// pacing at a fixed per-client arrival rate.
#[derive(Debug)]
pub struct PoissonTxGenerator<G> {
    inner: G,
    rng: SmallRng,
    /// Mean inter-arrival gap in nanoseconds (`1e9 / rate_tps`).
    mean_gap_ns: f64,
}

impl<G: TxGenerator> PoissonTxGenerator<G> {
    /// Paces `inner` at `rate_tps` transaction arrivals per second (per
    /// client). The arrival process is seeded independently of the inner
    /// generator's key/value sampling, so the same workload can be replayed
    /// at different rates with identical transaction contents.
    pub fn new(inner: G, seed: u64, rate_tps: f64) -> Self {
        assert!(
            rate_tps.is_finite() && rate_tps > 0.0,
            "arrival rate must be positive"
        );
        PoissonTxGenerator {
            inner,
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xA551)),
            mean_gap_ns: 1e9 / rate_tps,
        }
    }

    /// The configured per-client arrival rate in transactions per second.
    pub fn rate_tps(&self) -> f64 {
        1e9 / self.mean_gap_ns
    }
}

impl<G: TxGenerator> TxGenerator for PoissonTxGenerator<G> {
    fn next_tx(&mut self) -> Option<TxProfile> {
        self.inner.next_tx()
    }

    fn next_arrival_delay(&mut self) -> Option<Duration> {
        // Inverse-CDF sampling of the exponential distribution. `gen`
        // returns a value in [0, 1), so `1 - u` is in (0, 1] and the log is
        // finite; the gap is floored at 1 ns to keep simulated arrivals
        // strictly ordered even at absurd rates.
        let u: f64 = self.rng.gen();
        let gap_ns = (-(1.0 - u).ln() * self.mean_gap_ns).max(1.0);
        Some(Duration::from_nanos(gap_ns as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::YcsbGenerator;

    fn gaps(seed: u64, rate: f64, n: usize) -> Vec<Duration> {
        let inner = YcsbGenerator::rw_uniform(1, 1000, 2, 2);
        let mut g = PoissonTxGenerator::new(inner, seed, rate);
        (0..n)
            .map(|_| g.next_arrival_delay().expect("open-loop"))
            .collect()
    }

    #[test]
    fn arrival_stream_is_deterministic_under_seed() {
        assert_eq!(gaps(7, 1000.0, 64), gaps(7, 1000.0, 64));
        assert_ne!(gaps(7, 1000.0, 64), gaps(8, 1000.0, 64));
    }

    #[test]
    fn mean_gap_matches_rate() {
        // 2000 tx/s → mean gap 500 µs; the sample mean of 10k draws should
        // land within a few percent.
        let sample = gaps(3, 2000.0, 10_000);
        let mean_ns = sample.iter().map(|d| d.as_nanos() as f64).sum::<f64>() / 10_000.0;
        assert!(
            (mean_ns - 500_000.0).abs() < 25_000.0,
            "mean gap {mean_ns}ns, expected ~500000ns"
        );
    }

    #[test]
    fn pacing_does_not_perturb_transaction_contents() {
        let mut closed = YcsbGenerator::rw_uniform(1, 1000, 2, 2);
        let mut open = PoissonTxGenerator::new(YcsbGenerator::rw_uniform(1, 1000, 2, 2), 9, 500.0);
        for _ in 0..32 {
            assert_eq!(closed.next_tx(), open.next_tx());
        }
    }

    #[test]
    fn closed_loop_generators_report_no_pacing() {
        let mut g = YcsbGenerator::rw_uniform(1, 1000, 2, 2);
        assert!(g.next_arrival_delay().is_none());
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_panics() {
        let _ = PoissonTxGenerator::new(YcsbGenerator::rw_uniform(1, 10, 1, 1), 1, 0.0);
    }
}
