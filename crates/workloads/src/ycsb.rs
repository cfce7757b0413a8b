//! YCSB-T: the transactional microbenchmark used in Sections 6.2-6.4.
//!
//! Each transaction performs a configurable number of reads and writes over a
//! large key space ("a simple workload of identical transactions over ten
//! million keys"). Two access distributions are used in the paper: uniform
//! (`RW-U`, resource-bound) and Zipfian with coefficient 0.9 (`RW-Z`,
//! contention-bound).

use crate::zipf::ZipfSampler;
use basil_common::{Key, Op, TxGenerator, TxProfile, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Access distribution over the key space.
#[derive(Clone)]
enum Distribution {
    Uniform,
    Zipf(ZipfSampler),
}

/// The YCSB-T generator.
#[derive(Debug)]
pub struct YcsbGenerator {
    rng: SmallRng,
    num_keys: u64,
    reads: usize,
    writes: usize,
    distribution: Distribution,
    label: &'static str,
}

impl std::fmt::Debug for Distribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Distribution::Uniform => f.write_str("Uniform"),
            Distribution::Zipf(z) => write!(f, "Zipf(theta={})", z.theta()),
        }
    }
}

impl YcsbGenerator {
    /// The uniform `RW-U` workload: `reads` reads and `writes` writes per
    /// transaction, uniform over `num_keys` keys.
    pub fn rw_uniform(seed: u64, num_keys: u64, reads: usize, writes: usize) -> Self {
        YcsbGenerator {
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1)),
            num_keys: num_keys.max(1),
            reads,
            writes,
            distribution: Distribution::Uniform,
            label: "rw-u",
        }
    }

    /// The Zipfian `RW-Z` workload (coefficient 0.9 in the paper).
    pub fn rw_zipf(seed: u64, num_keys: u64, reads: usize, writes: usize, theta: f64) -> Self {
        YcsbGenerator {
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(2)),
            num_keys: num_keys.max(1),
            reads,
            writes,
            distribution: Distribution::Zipf(ZipfSampler::new(num_keys.max(2), theta)),
            label: "rw-z",
        }
    }

    /// A read-only workload of `reads` operations per transaction (used by
    /// the read-quorum experiment, Figure 5b).
    pub fn read_only(seed: u64, num_keys: u64, reads: usize) -> Self {
        YcsbGenerator {
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(3)),
            num_keys: num_keys.max(1),
            reads,
            writes: 0,
            distribution: Distribution::Uniform,
            label: "read-only",
        }
    }

    fn sample_key(&mut self) -> Key {
        let idx = match &self.distribution {
            Distribution::Uniform => self.rng.gen_range(0..self.num_keys),
            Distribution::Zipf(z) => z.sample(&mut self.rng),
        };
        Key::new(format!("user{idx}"))
    }

    /// The workload label ("rw-u", "rw-z", or "read-only").
    pub fn label(&self) -> &'static str {
        self.label
    }
}

impl TxGenerator for YcsbGenerator {
    fn next_tx(&mut self) -> Option<TxProfile> {
        let mut ops = Vec::with_capacity(self.reads + self.writes);
        // Writes target distinct keys sampled from the same distribution;
        // reads likewise. A transaction of R reads and W writes matches the
        // paper's "transactions consist of two reads and two writes" shape.
        let mut used: Vec<Key> = Vec::new();
        for _ in 0..self.reads {
            let mut key = self.sample_key();
            let mut tries = 0;
            while used.contains(&key) && tries < 8 {
                key = self.sample_key();
                tries += 1;
            }
            used.push(key.clone());
            ops.push(Op::Read(key));
        }
        for _ in 0..self.writes {
            let mut key = self.sample_key();
            let mut tries = 0;
            while used.contains(&key) && tries < 8 {
                key = self.sample_key();
                tries += 1;
            }
            used.push(key.clone());
            let value = Value::from_u64(self.rng.gen());
            ops.push(Op::Write(key, value));
        }
        Some(TxProfile::new(self.label, ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_uniform_produces_requested_shape() {
        let mut g = YcsbGenerator::rw_uniform(1, 1000, 2, 2);
        for _ in 0..50 {
            let tx = g.next_tx().expect("infinite generator");
            assert_eq!(tx.reads(), 2);
            assert_eq!(tx.writes(), 2);
            assert_eq!(tx.ops.len(), 4);
            assert_eq!(tx.label, "rw-u");
        }
    }

    #[test]
    fn read_only_has_no_writes() {
        let mut g = YcsbGenerator::read_only(1, 1000, 24);
        let tx = g.next_tx().expect("tx");
        assert_eq!(tx.reads(), 24);
        assert_eq!(tx.writes(), 0);
    }

    #[test]
    fn zipf_workload_concentrates_on_hot_keys() {
        let mut g = YcsbGenerator::rw_zipf(1, 100_000, 2, 2, 0.9);
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            let tx = g.next_tx().expect("tx");
            for op in &tx.ops {
                let name = op.key().as_str().trim_start_matches("user");
                let idx: u64 = name.parse().expect("numeric key");
                if idx < 100 {
                    hot += 1;
                }
                total += 1;
            }
        }
        let frac = hot as f64 / total as f64;
        assert!(frac > 0.2, "hot keys should dominate, got {frac}");
    }

    #[test]
    fn uniform_workload_spreads_accesses() {
        let mut g = YcsbGenerator::rw_uniform(1, 100_000, 2, 2);
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            let tx = g.next_tx().expect("tx");
            for op in &tx.ops {
                let idx: u64 = op
                    .key()
                    .as_str()
                    .trim_start_matches("user")
                    .parse()
                    .expect("numeric");
                if idx < 100 {
                    hot += 1;
                }
                total += 1;
            }
        }
        assert!((hot as f64 / total as f64) < 0.05);
    }

    #[test]
    fn distinct_keys_within_a_transaction() {
        let mut g = YcsbGenerator::rw_uniform(1, 1_000_000, 3, 3);
        for _ in 0..100 {
            let tx = g.next_tx().expect("tx");
            let keys: std::collections::HashSet<_> =
                tx.ops.iter().map(|o| o.key().clone()).collect();
            assert_eq!(keys.len(), tx.ops.len(), "keys should not repeat");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let txs = |seed| {
            let mut g = YcsbGenerator::rw_uniform(seed, 1000, 2, 2);
            (0..10)
                .map(|_| g.next_tx().expect("tx"))
                .collect::<Vec<_>>()
        };
        assert_eq!(txs(7), txs(7));
        assert_ne!(txs(7), txs(8));
    }
}
