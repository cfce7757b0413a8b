//! Baseline system profiles and configuration.

use basil_common::{Key, ShardId};
use basil_crypto::CostModel;

/// The CPU cost the baseline clients and replicas charge (only the systems
/// that sign charge crypto, see [`SystemKind::uses_signatures`]).
pub(crate) const COST: CostModel = CostModel::ed25519_default();

/// Fault threshold per shard of every baseline deployment.
const F: u32 = 1;

/// Which baseline system a deployment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// TAPIR-style non-Byzantine store: `2f + 1` replicas, no signatures,
    /// prepares executed directly by replicas.
    Tapir,
    /// 2PC + OCC over a chained-HotStuff-style ordering engine: `3f + 1`
    /// replicas, four voting rounds per ordered batch.
    TxHotstuff,
    /// 2PC + OCC over a PBFT-style (BFT-SMaRt) ordering engine: `3f + 1`
    /// replicas, two voting rounds per ordered batch.
    TxBftSmart,
}

impl SystemKind {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Tapir => "TAPIR",
            SystemKind::TxHotstuff => "TxHotstuff",
            SystemKind::TxBftSmart => "TxBFT-SMaRt",
        }
    }

    /// Number of replicas per shard for fault threshold `f`.
    pub fn replicas_per_shard(&self, f: u32) -> u32 {
        match self {
            SystemKind::Tapir => 2 * f + 1,
            SystemKind::TxHotstuff | SystemKind::TxBftSmart => 3 * f + 1,
        }
    }

    /// Number of leader/replica voting rounds before a batch is considered
    /// ordered (zero for TAPIR, which does not order requests).
    pub fn ordering_phases(&self) -> u32 {
        match self {
            SystemKind::Tapir => 0,
            SystemKind::TxHotstuff => 4,
            SystemKind::TxBftSmart => 2,
        }
    }

    /// Whether replicas and clients pay signature costs.
    pub fn uses_signatures(&self) -> bool {
        !matches!(self, SystemKind::Tapir)
    }

    /// Whether requests are ordered by a per-shard leader before execution.
    pub fn is_ordered(&self) -> bool {
        !matches!(self, SystemKind::Tapir)
    }
}

/// Configuration of a baseline deployment.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Which system to run.
    pub kind: SystemKind,
    /// Number of shards.
    pub num_shards: u32,
    /// Consensus/request batch size at the shard leader (the paper tunes 4
    /// for TxHotstuff and 16 for TxBFT-SMaRt on TPC-C).
    pub batch_size: u32,
}

impl BaselineConfig {
    /// A default configuration for the given system with one shard.
    pub fn new(kind: SystemKind) -> Self {
        BaselineConfig {
            kind,
            num_shards: 1,
            batch_size: match kind {
                SystemKind::TxHotstuff => 4,
                SystemKind::TxBftSmart => 16,
                SystemKind::Tapir => 1,
            },
        }
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.num_shards = shards.max(1);
        self
    }

    /// Sets the leader batch size.
    pub fn with_batch_size(mut self, batch: u32) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Replicas per shard.
    pub fn n(&self) -> u32 {
        self.kind.replicas_per_shard(F)
    }

    /// Quorum of matching replica replies a client needs before trusting a
    /// result (`f + 1` for the BFT baselines, 1 for TAPIR).
    pub fn reply_quorum(&self) -> u32 {
        if self.kind.uses_signatures() {
            F + 1
        } else {
            1
        }
    }

    /// Consensus vote quorum within a shard (`2f + 1` of `3f + 1`).
    pub fn ordering_quorum(&self) -> u32 {
        2 * F + 1
    }

    /// Maps a key to its shard (same placement function as Basil so the
    /// workloads shard identically across systems).
    pub fn shard_for_key(&self, key: &Key) -> ShardId {
        basil_common::config::shard_for_key(key, self.num_shards)
    }

    /// All shards in the deployment.
    pub fn shards(&self) -> impl Iterator<Item = ShardId> {
        (0..self.num_shards).map(ShardId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::SystemConfig;

    #[test]
    fn replica_counts_match_the_paper() {
        assert_eq!(SystemKind::Tapir.replicas_per_shard(1), 3);
        assert_eq!(SystemKind::TxHotstuff.replicas_per_shard(1), 4);
        assert_eq!(SystemKind::TxBftSmart.replicas_per_shard(1), 4);
    }

    #[test]
    fn ordering_depth_ranks_hotstuff_above_pbft() {
        assert!(
            SystemKind::TxHotstuff.ordering_phases() > SystemKind::TxBftSmart.ordering_phases()
        );
        assert_eq!(SystemKind::Tapir.ordering_phases(), 0);
        assert!(!SystemKind::Tapir.is_ordered());
        assert!(SystemKind::TxHotstuff.is_ordered());
    }

    #[test]
    fn default_configs() {
        let hs = BaselineConfig::new(SystemKind::TxHotstuff);
        assert_eq!(hs.n(), 4);
        assert_eq!(hs.reply_quorum(), 2);
        assert_eq!(hs.ordering_quorum(), 3);
        assert!(hs.kind.uses_signatures());

        let tapir = BaselineConfig::new(SystemKind::Tapir);
        assert_eq!(tapir.n(), 3);
        assert_eq!(tapir.reply_quorum(), 1);
        assert!(!tapir.kind.uses_signatures());
    }

    #[test]
    fn key_placement_matches_basil() {
        // Both systems must shard the workload identically for a fair
        // comparison.
        let baseline = BaselineConfig::new(SystemKind::TxHotstuff).with_shards(3);
        let basil = SystemConfig::sharded(3);
        for i in 0..200 {
            let key = Key::new(format!("warehouse:{i}"));
            assert_eq!(baseline.shard_for_key(&key), basil.shard_for_key(&key));
        }
    }
}
