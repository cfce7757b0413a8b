//! A tiny deterministic PRNG (xorshift64*) shared across the workspace.
//!
//! Protocol crates use it so they do not need a `rand` dependency and so
//! Byzantine sampling and backoff jitter stay reproducible under a fixed
//! seed.

/// A deterministic 64-bit PRNG.
#[derive(Clone, Debug)]
pub struct SmallPrng {
    state: u64,
}

impl SmallPrng {
    /// Creates a PRNG from a seed (zero is remapped to a fixed constant).
    pub fn new(seed: u64) -> Self {
        SmallPrng {
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`; `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::SmallPrng;

    #[test]
    fn prng_is_deterministic_and_bounded() {
        let mut a = SmallPrng::new(42);
        let mut b = SmallPrng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallPrng::new(9);
        for _ in 0..1000 {
            let f = c.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(c.next_below(7) < 7);
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = SmallPrng::new(0);
        let mut r = SmallPrng::new(0x9e3779b97f4a7c15);
        assert_eq!(z.next_u64(), r.next_u64());
    }
}
