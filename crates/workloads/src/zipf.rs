//! Zipfian sampling.
//!
//! Implements the rejection-inversion-free approximation of Gray et al.
//! ("Quickly generating billion-record synthetic databases", SIGMOD '94),
//! the same construction YCSB uses: the zeta normalization constant costs
//! `O(n)` — once per `(n, theta)` per process, however many clients build a
//! sampler over the same key space — after which every sample is `O(1)`.

use rand::Rng;
use std::sync::Mutex;

/// A Zipfian distribution over ranks `0..n` with skew `theta` (larger theta =
/// more skew). Rank 0 is the most popular item.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    /// `0.5^theta`: the weight of rank 1 relative to rank 0.
    half_pow_theta: f64,
}

/// `zeta(n, theta)` for every `(n, theta.to_bits())` this process has asked
/// for; a handful of entries, so a scanned list.
static ZETA: Mutex<Vec<(u64, u64, f64)>> = Mutex::new(Vec::new());

impl ZipfSampler {
    /// Creates a sampler over `n` items with skew `theta` (0 < theta < 1 for
    /// the classical YCSB range; the paper uses 0.9 for RW-Z and 0.75 for
    /// Retwis).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zeta_n = Self::zeta(n, theta);
        let zeta_2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0f64 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        ZipfSampler {
            n,
            theta,
            alpha,
            zeta_n,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    /// The generalized harmonic number `sum_{i=1..n} i^-theta`, memoised: a
    /// benchmark builds one sampler per client over the same million keys,
    /// and the sum is `n` calls of `powf`.
    fn zeta(n: u64, theta: f64) -> f64 {
        // The lock is held across the sum so that clients built concurrently
        // wait for the first one's result instead of repeating it.
        let mut known = ZETA.lock().expect("the zeta sum does not panic");
        if let Some((_, _, sum)) = known
            .iter()
            .find(|(kn, kt, _)| *kn == n && *kt == theta.to_bits())
        {
            return *sum;
        }
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        known.push((n, theta.to_bits(), sum));
        sum
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Samples a rank in `0..n`; smaller ranks are more likely.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn samples_are_in_range() {
        let z = ZipfSampler::new(1000, 0.9);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let z = ZipfSampler::new(10_000, 0.9);
        let mut rng = SmallRng::seed_from_u64(2);
        let samples: Vec<u64> = (0..50_000).map(|_| z.sample(&mut rng)).collect();
        let top10 = samples.iter().filter(|&&s| s < 10).count() as f64 / samples.len() as f64;
        let tail = samples.iter().filter(|&&s| s >= 5_000).count() as f64 / samples.len() as f64;
        assert!(
            top10 > 0.15,
            "top-10 ranks should absorb a large share, got {top10}"
        );
        assert!(tail < 0.2, "the tail should be rare, got {tail}");
    }

    #[test]
    fn lower_theta_is_less_skewed() {
        let mut rng = SmallRng::seed_from_u64(3);
        let skewed = ZipfSampler::new(10_000, 0.95);
        let flat = ZipfSampler::new(10_000, 0.5);
        let frac_top = |z: &ZipfSampler, rng: &mut SmallRng| {
            let hits = (0..20_000).filter(|_| z.sample(rng) < 10).count();
            hits as f64 / 20_000.0
        };
        let s = frac_top(&skewed, &mut rng);
        let f = frac_top(&flat, &mut rng);
        assert!(
            s > f,
            "theta=0.95 ({s}) should be more skewed than 0.5 ({f})"
        );
    }

    #[test]
    fn single_item_always_returns_zero() {
        let z = ZipfSampler::new(1, 0.9);
        let mut rng = SmallRng::seed_from_u64(4);
        assert!((0..100).all(|_| z.sample(&mut rng) == 0));
    }

    /// The memoised constant and the precomputed `0.5^theta` leave the
    /// sampled sequence bit for bit what it was: the first 1,000 ranks for
    /// `(1_000_000, 0.9)` under seed 1, captured at the commit before the
    /// memo (the first sixteen spelled out, all of them folded with FNV-1a).
    #[test]
    fn sampled_sequence_is_pinned() {
        const FIRST: [u64; 16] = [
            208764, 114771, 7, 113801, 51, 22677, 903442, 10357, 6, 17, 531310, 877, 3, 1885, 5, 28,
        ];
        for pass in 0..2 {
            // The second pass builds its sampler from the memo.
            let z = ZipfSampler::new(1_000_000, 0.9);
            let mut rng = SmallRng::seed_from_u64(1);
            let ranks: Vec<u64> = (0..1_000).map(|_| z.sample(&mut rng)).collect();
            assert_eq!(ranks[..16], FIRST, "pass {pass}");
            let fold = ranks
                .iter()
                .flat_map(|r| r.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(fold, 0x0e87_34a8_a1f5_c5cd, "pass {pass}");
        }
    }

    #[test]
    #[should_panic(expected = "theta must be in (0, 1)")]
    fn invalid_theta_panics() {
        let _ = ZipfSampler::new(10, 1.5);
    }
}
