//! Protocol configuration.

use crate::byzantine::ClientStrategy;
use basil_common::{Duration, SystemConfig};

/// Whether signatures are actually computed or only their cost is charged.
///
/// In the `Simulated` mode every signature artifact is produced with a dummy
/// tag and verification succeeds structurally; the CPU *cost* of the
/// corresponding real operation is still charged to the node, so performance
/// results are unaffected while benchmark wall-clock time stays manageable.
/// Correctness-oriented tests (forged messages, Byzantine replicas) use
/// `Real`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoMode {
    /// Compute and verify real HMAC-based signatures.
    Real,
    /// Produce placeholder signatures; only charge their CPU cost.
    Simulated,
}

/// Full configuration of a Basil deployment (shared by clients and replicas).
#[derive(Clone, Debug)]
pub struct BasilConfig {
    /// Shard layout, quorum sizes, timestamp window, batching, read quorums.
    pub system: SystemConfig,
    /// Whether signatures are actually computed (see [`CryptoMode`]).
    pub crypto_mode: CryptoMode,
    /// Default Byzantine strategy of clients (individual clients can
    /// override).
    pub client_strategy: ClientStrategy,
    /// Experiment hook for the `equiv-forced` failure mode of Section 6.4:
    /// replicas accept ST2 decisions without checking that the attached vote
    /// tallies justify them, so Byzantine clients can always equivocate.
    pub relax_st2_validation: bool,
    /// When set, replicas run a store garbage-collection sweep at this
    /// period, trimming committed versions, committed read records, and RTS
    /// entries older than `local_clock - gc_horizon`. Off by default: GC
    /// trades liveness for memory (the store refuses to prepare anything
    /// timestamped at or below the collected region — possible for an honest
    /// client only under clock skew beyond the horizon — where the full
    /// history might have let it commit), so runs opt in explicitly.
    pub gc_interval: Option<Duration>,
    /// How far behind the local clock the GC watermark trails. Must comfortably
    /// exceed [`basil_common::config::DELTA`] plus
    /// [`basil_store::session::MAX_BACKOFF`] so that fault-free timestamps
    /// never land below the watermark.
    pub gc_horizon: Duration,
    /// Open-loop admission bound: how many Poisson arrivals a client queues
    /// while a transaction is in flight before it starts shedding load
    /// instead of queueing unboundedly. Only consulted when the workload
    /// generator paces arrivals (closed-loop generators ignore it).
    pub admission_bound: usize,
    /// How long a replica recovering from an amnesia restart waits for
    /// `CatchUpReply` messages before resuming service with whatever
    /// decisions it gathered. Client traffic is buffered for at most this
    /// window.
    pub catch_up_timeout: Duration,
    /// Maximum number of protocol messages a recovering replica buffers for
    /// replay while catching up. Traffic beyond the bound is shed (and
    /// counted in `ReplicaStats::catch_up_shed`); senders retransmit through
    /// their ordinary timeouts, so the bound trades a little extra recovery
    /// latency under overload for a hard memory ceiling — mirroring the
    /// client-side admission bound.
    pub catch_up_buffer_bound: usize,
}

impl BasilConfig {
    /// Configuration used by most unit and integration tests: one shard,
    /// `f = 1`, no batching, real crypto.
    pub fn test_single_shard() -> Self {
        BasilConfig {
            system: SystemConfig::single_shard_f1(),
            crypto_mode: CryptoMode::Real,
            client_strategy: ClientStrategy::Correct,
            relax_st2_validation: false,
            gc_interval: None,
            gc_horizon: Duration::from_millis(500),
            admission_bound: 32,
            catch_up_timeout: Duration::from_millis(5),
            catch_up_buffer_bound: 4096,
        }
    }

    /// Configuration for benchmark runs: crypto cost charged but not
    /// computed, batching per `system.batch_size`.
    pub fn bench(system: SystemConfig) -> Self {
        BasilConfig {
            system,
            crypto_mode: CryptoMode::Simulated,
            ..Self::test_single_shard()
        }
    }

    /// Returns a copy with signatures disabled entirely (the `Basil-NoProofs`
    /// configuration of Figures 5a and 5c): nothing is signed or verified, so
    /// no crypto cost is charged either.
    pub fn without_proofs(mut self) -> Self {
        self.system.signatures = false;
        self
    }

    /// Returns a copy with the fast path disabled (`Basil-NoFP`, Figure 6a).
    pub fn without_fast_path(mut self) -> Self {
        self.system.fast_path = false;
        self
    }

    /// Returns a copy with the given reply batch size.
    pub fn with_batch_size(mut self, batch: u32) -> Self {
        self.system.batch_size = batch.max(1);
        self
    }

    /// Returns a copy with periodic store garbage collection enabled: every
    /// `interval`, replicas trim bookkeeping older than
    /// `local_clock - horizon` (see the `gc_interval` field docs for the
    /// liveness caveat).
    pub fn with_gc(mut self, interval: Duration, horizon: Duration) -> Self {
        self.gc_interval = Some(interval);
        self.gc_horizon = horizon;
        self
    }

    /// Returns a copy with the open-loop admission bound replaced (minimum 1).
    pub fn with_admission_bound(mut self, bound: usize) -> Self {
        self.admission_bound = bound.max(1);
        self
    }

    /// Returns a copy with the post-amnesia catch-up window replaced.
    pub fn with_catch_up_timeout(mut self, timeout: Duration) -> Self {
        self.catch_up_timeout = timeout;
        self
    }

    /// Returns a copy with the recovery-time replay buffer bound replaced
    /// (minimum 1). Messages beyond the bound are shed during catch-up and
    /// recovered through sender retransmission.
    pub fn with_catch_up_buffer_bound(mut self, bound: usize) -> Self {
        self.catch_up_buffer_bound = bound.max(1);
        self
    }

    /// Whether signatures are generated/validated at all.
    pub fn signatures_enabled(&self) -> bool {
        self.system.signatures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_helpers() {
        let cfg = BasilConfig::test_single_shard();
        assert!(cfg.signatures_enabled());
        assert!(cfg.system.fast_path);

        let np = cfg.clone().without_proofs();
        assert!(!np.signatures_enabled());

        let nofp = cfg.clone().without_fast_path();
        assert!(!nofp.system.fast_path);

        let batched = cfg.with_batch_size(16);
        assert_eq!(batched.system.batch_size, 16);
        assert_eq!(batched.clone().with_batch_size(0).system.batch_size, 1);
    }

    #[test]
    fn gc_is_off_by_default_and_opt_in() {
        let cfg = BasilConfig::test_single_shard();
        assert_eq!(cfg.gc_interval, None);
        let on = cfg.with_gc(Duration::from_millis(50), Duration::from_millis(200));
        assert_eq!(on.gc_interval, Some(Duration::from_millis(50)));
        assert_eq!(on.gc_horizon, Duration::from_millis(200));
    }

    #[test]
    fn bench_config_uses_simulated_crypto() {
        let cfg = BasilConfig::bench(SystemConfig::sharded(3));
        assert_eq!(cfg.crypto_mode, CryptoMode::Simulated);
        assert_eq!(cfg.system.num_shards, 3);
    }

    #[test]
    fn durability_knobs_default_free_and_opt_in() {
        let cfg = BasilConfig::test_single_shard();
        assert!(cfg.catch_up_timeout > Duration::ZERO);
        let tuned = cfg
            .with_catch_up_timeout(Duration::from_millis(8))
            .with_catch_up_buffer_bound(16);
        assert_eq!(tuned.catch_up_timeout, Duration::from_millis(8));
        assert_eq!(tuned.catch_up_buffer_bound, 16);
        assert_eq!(
            tuned.with_catch_up_buffer_bound(0).catch_up_buffer_bound,
            1,
            "bound is clamped to at least one buffered message"
        );
    }

    #[test]
    fn throughput_plane_knobs() {
        let cfg = BasilConfig::test_single_shard();
        assert_eq!(cfg.admission_bound, 32);
        let tuned = cfg.clone().with_admission_bound(4);
        assert_eq!(tuned.admission_bound, 4);
        assert_eq!(cfg.clone().with_admission_bound(0).admission_bound, 1);
    }
}
