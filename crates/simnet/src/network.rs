//! Network model: latency, jitter, loss, partitions, and targeted link
//! faults.

use basil_common::{Duration, NodeId, SimTime};
use rand::Rng;
use std::collections::HashSet;

/// Configuration of the simulated network.
///
/// The defaults approximate the CloudLab m510 cluster the paper used:
/// 0.15 ms ping (so 75 µs one way), 10 GbE (bandwidth is not modelled; the
/// per-message CPU overhead in the crypto cost model covers serialization).
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Mean one-way latency between distinct nodes.
    pub one_way_latency: Duration,
    /// Uniform jitter added to each message: the actual latency is drawn from
    /// `[one_way_latency, one_way_latency + jitter]`.
    pub jitter: Duration,
    /// Latency of a node talking to itself (loopback).
    pub loopback_latency: Duration,
    /// Probability in `[0, 1)` that a message is silently dropped.
    pub drop_probability: f64,
}

impl NetworkConfig {
    /// LAN profile matching the paper's testbed.
    pub fn lan() -> Self {
        NetworkConfig {
            one_way_latency: Duration::from_micros(75),
            jitter: Duration::from_micros(20),
            loopback_latency: Duration::from_micros(5),
            drop_probability: 0.0,
        }
    }

    /// An idealized instantaneous network, useful in unit tests where only
    /// protocol logic matters.
    pub fn instant() -> Self {
        NetworkConfig {
            one_way_latency: Duration::from_nanos(1),
            jitter: Duration::ZERO,
            loopback_latency: Duration::from_nanos(1),
            drop_probability: 0.0,
        }
    }

    /// A lossy LAN, for fault-injection tests.
    pub fn lossy(drop_probability: f64) -> Self {
        NetworkConfig {
            drop_probability,
            ..NetworkConfig::lan()
        }
    }

    /// Samples the delivery latency for a message from `from` to `to`.
    pub fn sample_latency(&self, from: NodeId, to: NodeId, rng: &mut impl Rng) -> Duration {
        if from == to {
            return self.loopback_latency;
        }
        if self.jitter == Duration::ZERO {
            return self.one_way_latency;
        }
        let extra = rng.gen_range(0..=self.jitter.as_nanos());
        self.one_way_latency + Duration::from_nanos(extra)
    }

    /// Decides whether a message is dropped.
    pub fn sample_drop(&self, rng: &mut impl Rng) -> bool {
        self.drop_probability > 0.0 && rng.gen::<f64>() < self.drop_probability
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::lan()
    }
}

/// A dynamic partition: messages between the two sides are dropped while the
/// partition is active. Used by liveness and fallback tests.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    isolated: HashSet<NodeId>,
    active: bool,
}

impl Partition {
    /// Creates an inactive partition isolating `nodes` from everyone else.
    pub fn isolating(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        Partition {
            isolated: nodes.into_iter().collect(),
            active: false,
        }
    }

    /// Activates the partition.
    pub fn activate(&mut self) {
        self.active = true;
    }

    /// Heals the partition.
    pub fn heal(&mut self) {
        self.active = false;
    }

    /// Whether the partition currently blocks traffic between `a` and `b`.
    pub fn blocks(&self, a: NodeId, b: NodeId) -> bool {
        if !self.active || a == b {
            return false;
        }
        self.isolated.contains(&a) != self.isolated.contains(&b)
    }
}

/// Selects the nodes on one side of a targeted link fault.
///
/// Matchers are pure predicates over [`NodeId`]s, so fault *selection* is
/// deterministic; only the per-message probability draws consume the
/// simulation RNG (and only for messages a fault actually matches, so
/// installing no faults leaves the RNG stream — and every pinned golden
/// trace — untouched).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeMatcher {
    /// Matches every node.
    Any,
    /// Matches every client.
    Clients,
    /// Matches every replica.
    Replicas,
    /// Matches exactly one node.
    Node(NodeId),
}

impl NodeMatcher {
    /// Whether `id` is selected by this matcher.
    pub fn matches(&self, id: NodeId) -> bool {
        match self {
            NodeMatcher::Any => true,
            NodeMatcher::Clients => id.is_client(),
            NodeMatcher::Replicas => !id.is_client(),
            NodeMatcher::Node(n) => *n == id,
        }
    }
}

/// What a matching link fault does to a message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFaultKind {
    /// Silently drop the message with the given probability.
    Drop {
        /// Per-message drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Add a fixed extra delay on top of the sampled network latency.
    Delay {
        /// Extra one-way delay added to each matching message.
        extra: Duration,
    },
    /// Deliver the message *twice* (an attacker or a flaky link replaying
    /// traffic) with the given probability; the duplicate samples its own
    /// delivery latency.
    Replay {
        /// Per-message replay probability in `[0, 1]`.
        probability: f64,
    },
    /// Corrupt the message in flight with the given probability. The
    /// corruption is a *detected garble*: Basil's channels are authenticated
    /// (HMAC), so the receiver discards the message — a drop, counted
    /// separately as `messages_corrupted`.
    Corrupt {
        /// Per-message corruption probability in `[0, 1]`.
        probability: f64,
    },
}

/// A targeted, time-windowed network fault on the links selected by a pair
/// of [`NodeMatcher`]s. Installed via `Simulation::add_link_fault`; the
/// scenario layer (`basil-scenario`) compiles declarative fault specs down
/// to these.
#[derive(Clone, Debug)]
pub struct LinkFault {
    /// Sender-side selector.
    pub from: NodeMatcher,
    /// Receiver-side selector.
    pub to: NodeMatcher,
    /// Start of the active window (inclusive, in simulation time).
    pub start: SimTime,
    /// End of the active window (exclusive).
    pub end: SimTime,
    /// The effect applied to matching messages.
    pub kind: LinkFaultKind,
}

impl LinkFault {
    /// Creates a fault active on `from → to` links during `[start, end)`.
    pub fn new(
        kind: LinkFaultKind,
        from: NodeMatcher,
        to: NodeMatcher,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        LinkFault {
            from,
            to,
            start,
            end,
            kind,
        }
    }

    /// Whether this fault applies to a message sent at `at` from `from` to
    /// `to`.
    pub fn applies(&self, at: SimTime, from: NodeId, to: NodeId) -> bool {
        at >= self.start && at < self.end && self.from.matches(from) && self.to.matches(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::{ClientId, ReplicaId, ShardId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn c(n: u64) -> NodeId {
        NodeId::Client(ClientId(n))
    }
    fn r(i: u32) -> NodeId {
        NodeId::Replica(ReplicaId::new(ShardId(0), i))
    }

    #[test]
    fn latency_within_bounds() {
        let cfg = NetworkConfig::lan();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let l = cfg.sample_latency(c(1), r(0), &mut rng);
            assert!(l >= cfg.one_way_latency);
            assert!(l <= cfg.one_way_latency + cfg.jitter);
        }
    }

    #[test]
    fn loopback_uses_loopback_latency() {
        let cfg = NetworkConfig::lan();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            cfg.sample_latency(c(1), c(1), &mut rng),
            cfg.loopback_latency
        );
    }

    #[test]
    fn drop_probability_zero_never_drops() {
        let cfg = NetworkConfig::lan();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!((0..1000).all(|_| !cfg.sample_drop(&mut rng)));
    }

    #[test]
    fn drop_probability_is_roughly_respected() {
        let cfg = NetworkConfig::lossy(0.3);
        let mut rng = SmallRng::seed_from_u64(7);
        let drops = (0..10_000).filter(|_| cfg.sample_drop(&mut rng)).count();
        assert!((2_500..3_500).contains(&drops), "drops={drops}");
    }

    #[test]
    fn partition_blocks_cross_traffic_only_when_active() {
        let mut p = Partition::isolating([r(0), r(1)]);
        assert!(!p.blocks(r(0), r(5)));
        p.activate();
        assert!(p.blocks(r(0), r(5)));
        assert!(p.blocks(r(5), r(1)), "blocking is symmetric");
        assert!(
            !p.blocks(r(0), r(1)),
            "within the isolated side traffic flows"
        );
        assert!(
            !p.blocks(r(4), r(5)),
            "outside the isolated side traffic flows"
        );
        p.heal();
        assert!(!p.blocks(r(0), r(5)));
    }

    #[test]
    fn matcher_selects_expected_nodes() {
        assert!(NodeMatcher::Any.matches(c(1)));
        assert!(NodeMatcher::Any.matches(r(0)));
        assert!(NodeMatcher::Clients.matches(c(1)));
        assert!(!NodeMatcher::Clients.matches(r(0)));
        assert!(NodeMatcher::Replicas.matches(r(3)));
        assert!(!NodeMatcher::Replicas.matches(c(2)));
        assert!(NodeMatcher::Node(r(2)).matches(r(2)));
        assert!(!NodeMatcher::Node(r(2)).matches(r(3)));
    }

    #[test]
    fn link_fault_window_and_selectors() {
        let f = LinkFault::new(
            LinkFaultKind::Drop { probability: 1.0 },
            NodeMatcher::Clients,
            NodeMatcher::Node(r(1)),
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        );
        assert!(f.applies(SimTime::from_millis(10), c(1), r(1)));
        assert!(f.applies(SimTime::from_millis(19), c(9), r(1)));
        assert!(!f.applies(SimTime::from_millis(20), c(1), r(1)), "end excl");
        assert!(!f.applies(SimTime::from_millis(9), c(1), r(1)));
        assert!(!f.applies(SimTime::from_millis(15), r(0), r(1)), "sender");
        assert!(!f.applies(SimTime::from_millis(15), c(1), r(2)), "receiver");
    }
}
