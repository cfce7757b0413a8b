//! Cryptographic CPU cost model.
//!
//! The evaluation's central overhead (Section 6.2) is the CPU time replicas
//! and clients spend generating and verifying ed25519 signatures and hashing
//! batches. The cluster simulator charges these costs to the node's CPU so
//! that throughput saturates where the paper's does. The defaults below are
//! calibrated to ed25519-donna on a ~2 GHz core (the CloudLab m510 machines
//! used in the paper): roughly 55 µs per signature generation, 130 µs per
//! verification, and a few µs per KiB of hashing.
//!
//! The per-message cost of serialization and the network stack is not a
//! cryptographic cost and is not modelled here: the simulator charges it,
//! `basil_simnet::MESSAGE_CPU` per message a handler receives or sends.

use basil_common::Duration;

/// CPU cost of cryptographic operations, charged in simulated time. The
/// callers decide whether to charge: with signatures off (`Basil-NoProofs`,
/// Figures 5a/5c, and TAPIR) no crypto cost is charged at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of generating one signature.
    pub sign: Duration,
    /// Cost of verifying one signature.
    pub verify: Duration,
    /// Cost of hashing, per 256 bytes of input (SHA-256 block granularity is
    /// finer, but per-256-byte accounting keeps the arithmetic simple).
    pub hash_per_256b: Duration,
    /// Cost of computing or checking a MAC. A message that only its
    /// recipient checks does not need to be transferable, so it is MAC
    /// authenticated: client requests, and replica read replies. Both are
    /// far cheaper than the replica votes that end up inside certificates.
    pub mac: Duration,
}

impl CostModel {
    /// Cost model calibrated to the paper's testbed: the one model every
    /// simulated node charges.
    pub const fn ed25519_default() -> Self {
        CostModel {
            sign: Duration::from_micros(55),
            verify: Duration::from_micros(130),
            hash_per_256b: Duration::from_micros(1),
            mac: Duration::from_micros(2),
        }
    }

    /// Cost of hashing `bytes` bytes.
    pub fn hash_cost(&self, bytes: usize) -> Duration {
        let blocks = (bytes as u64).div_ceil(256).max(1);
        Duration::from_nanos(self.hash_per_256b.as_nanos() * blocks)
    }

    /// Cost of building a Merkle tree over a batch of `batch_size` replies of
    /// roughly `reply_bytes` bytes each, plus signing the root. This is the
    /// replica-side cost of one reply batch (Section 4.4): batching divides
    /// the signature cost by `b` but adds `O(b)` hashing.
    pub fn batch_sign_cost(&self, batch_size: usize, reply_bytes: usize) -> Duration {
        // One leaf hash per reply plus ~one interior hash per reply.
        let hashing =
            Duration::from_nanos(self.hash_cost(reply_bytes).as_nanos() * 2 * batch_size as u64);
        self.sign + hashing
    }

    /// The Merkle-path recomputation cost of one batched reply: the leaf
    /// hash plus the log2(b) sibling hashes up to the root.
    fn reply_path_cost(&self, batch_size: usize, reply_bytes: usize) -> Duration {
        let depth = (batch_size.max(1) as f64).log2().ceil() as u64 + 1;
        Duration::from_nanos(self.hash_cost(reply_bytes).as_nanos() * depth)
    }

    /// Client-side cost of validating one batched reply: recompute the leaf
    /// and the log2(b) path hashes, plus a signature verification unless the
    /// root signature was already cached.
    pub fn batch_verify_cost(
        &self,
        batch_size: usize,
        reply_bytes: usize,
        signature_cached: bool,
    ) -> Duration {
        let hashing = self.reply_path_cost(batch_size, reply_bytes);
        if signature_cached {
            hashing
        } else {
            hashing + self.verify
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = CostModel::ed25519_default();
        assert!(
            c.verify > c.sign,
            "verification is costlier than signing for ed25519"
        );
        assert!(c.sign > Duration::from_micros(10));
    }

    #[test]
    fn hash_cost_scales_with_size() {
        let c = CostModel::ed25519_default();
        assert!(c.hash_cost(10_000) > c.hash_cost(1_000));
        assert_eq!(c.hash_cost(0), c.hash_cost(1));
        assert_eq!(c.hash_cost(256), c.hash_cost(200));
    }

    #[test]
    fn batching_amortizes_signatures() {
        let c = CostModel::ed25519_default();
        // Per-reply cost with batching should be below per-reply cost without.
        let unbatched_per_reply = c.batch_sign_cost(1, 128);
        let batched_16 = c.batch_sign_cost(16, 128);
        let batched_per_reply = Duration::from_nanos(batched_16.as_nanos() / 16);
        assert!(batched_per_reply < unbatched_per_reply);
        // But total batch cost grows with batch size (hashing overhead).
        assert!(batched_16 > unbatched_per_reply);
    }

    #[test]
    fn amortization_keeps_improving_through_batch_64() {
        // ROADMAP flagged batching > 16 as untested: per-reply signing cost
        // must keep strictly improving through batches of 32 and 64, and the
        // amortization ratio (unbatched / per-reply) must keep growing.
        let c = CostModel::ed25519_default();
        let per_reply = |b: usize| c.batch_sign_cost(b, 128).as_nanos() as f64 / b as f64;
        let unbatched = per_reply(1);
        let mut prev_ratio = 1.0;
        for b in [2usize, 4, 8, 16, 32, 64] {
            let ratio = unbatched / per_reply(b);
            assert!(
                ratio > prev_ratio,
                "batch {b}: ratio {ratio:.2} did not improve on {prev_ratio:.2}"
            );
            prev_ratio = ratio;
        }
        // At 64 the signature is almost fully amortized: the residual cost is
        // dominated by the two hashes per reply.
        assert!(prev_ratio > 10.0, "ratio at 64 only {prev_ratio:.2}");
    }

    #[test]
    fn cached_verification_is_cheaper() {
        let c = CostModel::ed25519_default();
        let cold = c.batch_verify_cost(16, 128, false);
        let warm = c.batch_verify_cost(16, 128, true);
        assert!(warm < cold);
        assert!(cold - warm >= c.verify - Duration::from_nanos(1));
    }
}
