//! Shard and deployment configuration, including Basil's quorum arithmetic.
//!
//! Basil provisions `n = 5f + 1` replicas per shard (Section 3). The derived
//! quorum sizes are below; the four thresholds of a shard's ST1 votes (fast
//! and slow, commit and abort) are `basil_core::certs::Strength::quorum`.
//!
//! | quorum | size | purpose |
//! |---|---|---|
//! | stage-2 (logging) quorum | `n - f = 4f + 1` | durable 2PC decision on `S_log` |
//! | read reply quorum | `f + 1` | at least one correct replica answered |
//! | prepared-version vouching | `f + 1` | a prepared version may be adopted as a dependency |

use crate::ids::ShardId;
use crate::kv::Key;
use crate::time::Duration;

/// Per-shard replication configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Maximum number of Byzantine replicas tolerated in the shard.
    pub f: u32,
}

impl ShardConfig {
    /// Creates a shard configuration tolerating `f` Byzantine replicas.
    pub fn new(f: u32) -> Self {
        ShardConfig { f }
    }

    /// Total number of replicas in the shard, `n = 5f + 1`.
    pub fn n(&self) -> u32 {
        5 * self.f + 1
    }

    /// Stage-2 logging quorum `n - f = 4f + 1`.
    pub fn st2_quorum(&self) -> u32 {
        self.n() - self.f
    }

    /// Number of replicas that must return the *same prepared version* before
    /// a client may adopt it as a dependency (`f + 1`).
    pub fn prepared_vouch_quorum(&self) -> u32 {
        self.f + 1
    }

    /// Quorum of matching current views a replica needs to adopt `v + 1`
    /// during fallback leader election (rule R1): `3f + 1`.
    pub fn view_r1_quorum(&self) -> u32 {
        3 * self.f + 1
    }

    /// Quorum of matching current views that lets a replica skip ahead to a
    /// larger view (rule R2): `f + 1`.
    pub fn view_r2_quorum(&self) -> u32 {
        self.f + 1
    }

    /// Number of `ElectFB` messages a fallback leader must gather before it
    /// considers itself elected: `4f + 1`.
    pub fn elect_quorum(&self) -> u32 {
        4 * self.f + 1
    }
}

/// How many replicas a client sends its read requests to, and how many
/// replies it waits for (Section 6.2 / Figure 5b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadQuorum {
    /// Read from a single replica (no Byzantine independence; baseline point).
    One,
    /// Send to `2f + 1`, wait for `f + 1` replies (Basil's default).
    FPlusOne,
    /// Send to `3f + 1`, wait for `2f + 1` replies (lowers the chance of
    /// missing the freshest prepared version at the cost of more work).
    TwoFPlusOne,
}

impl ReadQuorum {
    /// Number of replicas the read request is sent to.
    pub fn fanout(&self, cfg: &ShardConfig) -> u32 {
        match self {
            ReadQuorum::One => 1,
            ReadQuorum::FPlusOne => 2 * cfg.f + 1,
            ReadQuorum::TwoFPlusOne => 3 * cfg.f + 1,
        }
    }

    /// Number of replies the client waits for before choosing a version.
    pub fn wait_for(&self, cfg: &ShardConfig) -> u32 {
        match self {
            ReadQuorum::One => 1,
            ReadQuorum::FPlusOne => cfg.f + 1,
            ReadQuorum::TwoFPlusOne => 2 * cfg.f + 1,
        }
    }
}

/// Timestamp acceptance window `delta`: replicas reject operations whose
/// timestamp exceeds their local clock plus `DELTA` (Section 4.1).
pub const DELTA: Duration = Duration::from_millis(50);

/// Deployment-wide configuration shared by clients and replicas.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of data shards.
    pub num_shards: u32,
    /// Per-shard replication configuration.
    pub shard: ShardConfig,
    /// Read quorum configuration.
    pub read_quorum: ReadQuorum,
    /// Whether the single-round-trip fast path is enabled (Figure 6a ablation).
    pub fast_path: bool,
    /// Reply batch size used by replicas for signature amortization
    /// (Section 4.4, Figure 6b). `1` disables batching.
    pub batch_size: u32,
    /// Whether signatures/verification are performed and charged
    /// (`false` reproduces the `Basil-NoProofs` configuration of Figure 5a/5c).
    pub signatures: bool,
}

impl SystemConfig {
    /// A small configuration suitable for unit and integration tests:
    /// one shard, `f = 1`.
    pub fn single_shard_f1() -> Self {
        SystemConfig {
            num_shards: 1,
            shard: ShardConfig::new(1),
            read_quorum: ReadQuorum::FPlusOne,
            fast_path: true,
            batch_size: 1,
            signatures: true,
        }
    }

    /// A configuration with `num_shards` shards and `f = 1`.
    pub fn sharded(num_shards: u32) -> Self {
        SystemConfig {
            num_shards,
            ..SystemConfig::single_shard_f1()
        }
    }

    /// Maps a key to the shard responsible for it ([`shard_for_key`]).
    pub fn shard_for_key(&self, key: &Key) -> ShardId {
        shard_for_key(key, self.num_shards)
    }

    /// All shard identifiers in the deployment.
    pub fn shards(&self) -> impl Iterator<Item = ShardId> {
        (0..self.num_shards).map(ShardId)
    }
}

/// The shard of `num_shards` responsible for `key`: the stable hash the key
/// carries (see [`Key`]) modulo the shard count. Every participant — and
/// every system under comparison, so that a workload shards identically
/// across them — must agree on this mapping.
pub fn shard_for_key(key: &Key, num_shards: u32) -> ShardId {
    ShardId((key.hash64() % num_shards as u64) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Key;

    #[test]
    fn quorum_sizes_for_f1() {
        let c = ShardConfig::new(1);
        assert_eq!(c.n(), 6);
        assert_eq!(c.st2_quorum(), 5);
        assert_eq!(c.elect_quorum(), 5);
        assert_eq!(c.view_r1_quorum(), 4);
        assert_eq!(c.view_r2_quorum(), 2);
    }

    #[test]
    fn quorum_sizes_for_f2() {
        let c = ShardConfig::new(2);
        assert_eq!(c.n(), 11);
        assert_eq!(c.st2_quorum(), 9);
    }

    #[test]
    fn read_quorum_fanout_and_wait() {
        let c = ShardConfig::new(1);
        assert_eq!(ReadQuorum::One.fanout(&c), 1);
        assert_eq!(ReadQuorum::One.wait_for(&c), 1);
        assert_eq!(ReadQuorum::FPlusOne.fanout(&c), 3);
        assert_eq!(ReadQuorum::FPlusOne.wait_for(&c), 2);
        assert_eq!(ReadQuorum::TwoFPlusOne.fanout(&c), 4);
        assert_eq!(ReadQuorum::TwoFPlusOne.wait_for(&c), 3);
    }

    #[test]
    fn key_placement_is_stable_and_in_range() {
        let cfg = SystemConfig::sharded(3);
        for i in 0..100 {
            let k = Key::new(format!("key{i}"));
            let s1 = cfg.shard_for_key(&k);
            let s2 = cfg.shard_for_key(&k);
            assert_eq!(s1, s2);
            assert!(s1.0 < 3);
        }
    }

    #[test]
    fn key_placement_spreads_keys() {
        let cfg = SystemConfig::sharded(3);
        let mut counts = [0usize; 3];
        for i in 0..3000 {
            let k = Key::new(format!("key{i}"));
            counts[cfg.shard_for_key(&k).0 as usize] += 1;
        }
        for c in counts {
            assert!(c > 500, "distribution too skewed: {counts:?}");
        }
    }

    /// Placement is part of the deployment contract (and of every pinned
    /// history): the hash a key now carries must put it where the FNV walk
    /// per call put it. Captured at the commit before keys carried a hash;
    /// digit `n - 1` of each row is the shard under `n` shards.
    #[test]
    fn key_placement_is_pinned() {
        const PLACED: [(&str, &str); 64] = [
            ("key0", "01112101"),
            ("acct:7919:checking", "00120412"),
            ("warehouse:2", "01211515"),
            ("k314187", "00220242"),
            ("key4", "01014325"),
            ("acct:39595:checking", "01111145"),
            ("warehouse:6", "01210531"),
            ("k733103", "00121406"),
            ("key8", "00104414"),
            ("acct:71271:checking", "01013305"),
            ("warehouse:10", "00120466"),
            ("k1152019", "01230563"),
            ("key12", "00023006"),
            ("acct:102947:checking", "00123426"),
            ("warehouse:14", "01130147"),
            ("k1570935", "00223216"),
            ("key16", "01012325"),
            ("acct:134623:checking", "01013361"),
            ("warehouse:18", "00221256"),
            ("k1989851", "01231523"),
            ("key20", "00024012"),
            ("acct:166299:checking", "01031357"),
            ("warehouse:22", "00122432"),
            ("k2408767", "00202254"),
            ("key24", "00000004"),
            ("acct:197975:checking", "01210505"),
            ("warehouse:26", "00004050"),
            ("k2827683", "00104414"),
            ("key28", "01233533"),
            ("acct:229651:checking", "01034337"),
            ("warehouse:30", "00003024"),
            ("k3246599", "01014335"),
            ("key32", "00104424"),
            ("acct:261327:checking", "01233553"),
            ("warehouse:34", "01033357"),
            ("k3665515", "01011315"),
            ("key36", "00224256"),
            ("acct:293003:checking", "01214551"),
            ("warehouse:38", "01214521"),
            ("k4084431", "01131133"),
            ("key40", "01114111"),
            ("acct:324679:checking", "01233507"),
            ("warehouse:42", "01031303"),
            ("k4503347", "00123406"),
            ("key44", "00224236"),
            ("acct:356355:checking", "01113115"),
            ("warehouse:46", "01232513"),
            ("k4922263", "00024042"),
            ("key48", "00004050"),
            ("acct:388031:checking", "01211565"),
            ("warehouse:50", "00221212"),
            ("k5341179", "01034317"),
            ("key52", "00222226"),
            ("acct:419707:checking", "00124422"),
            ("warehouse:54", "00024066"),
            ("k5760095", "01034307"),
            ("key56", "01030367"),
            ("acct:451383:checking", "00120466"),
            ("warehouse:58", "00002000"),
            ("k6179011", "00104424"),
            ("key60", "00122402"),
            ("acct:483059:checking", "01034367"),
            ("warehouse:62", "00100450"),
            ("k6597927", "01214531"),
        ];
        for (key, shards) in PLACED {
            let placed: String = (1..=8)
                .map(|n| shard_for_key(&Key::new(key), n).0.to_string())
                .collect();
            assert_eq!(placed, shards, "key {key:?}");
        }
    }

    #[test]
    fn total_replicas() {
        let shape = |c: SystemConfig| (c.num_shards, c.shard.n());
        assert_eq!(shape(SystemConfig::sharded(3)), (3, 6));
        assert_eq!(shape(SystemConfig::single_shard_f1()), (1, 6));
    }
}
