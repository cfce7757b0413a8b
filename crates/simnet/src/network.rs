//! Network model: latency and jitter, and the time-windowed link faults
//! through which every message loss, delay, replay and corruption is
//! injected.

use basil_common::{Duration, NodeId, SimTime};
use rand::Rng;

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
}

impl NetworkConfig {
    /// LAN profile matching the paper's testbed.
    pub fn lan() -> Self {
        NetworkConfig {
            one_way_latency: Duration::from_micros(75),
            jitter: Duration::from_micros(20),
            loopback_latency: Duration::from_micros(5),
        }
    }

    /// An idealized instantaneous network, useful in unit tests where only
    /// protocol logic matters.
    pub fn instant() -> Self {
        NetworkConfig {
            one_way_latency: Duration::from_nanos(1),
            jitter: Duration::ZERO,
            loopback_latency: Duration::from_nanos(1),
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
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::lan()
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
    /// Silently drop the message with the given probability. A probability
    /// of 1 or more cuts the link and draws nothing from the RNG.
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
    /// `to`. A message a node sends itself never crosses a link, so no
    /// fault applies to it; on TCP it never leaves the process either.
    pub fn applies(&self, at: SimTime, from: NodeId, to: NodeId) -> bool {
        from != to
            && at >= self.start
            && at < self.end
            && self.from.matches(from)
            && self.to.matches(to)
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
    fn partition_blocks_cross_traffic_only_when_active() {
        let cut = |from, to| {
            LinkFault::new(
                LinkFaultKind::Drop { probability: 1.0 },
                from,
                to,
                SimTime::from_millis(10),
                SimTime::from_millis(20),
            )
        };
        let out = cut(NodeMatcher::Node(r(0)), NodeMatcher::Any);
        let into = cut(NodeMatcher::Any, NodeMatcher::Node(r(0)));
        let blocks = |at: u64, a: NodeId, b: NodeId| {
            let at = SimTime::from_millis(at);
            out.applies(at, a, b) || into.applies(at, a, b)
        };
        assert!(!blocks(9, r(0), r(5)), "not yet active");
        assert!(blocks(10, r(0), r(5)));
        assert!(blocks(10, r(5), r(0)), "blocking is symmetric");
        assert!(blocks(19, c(1), r(0)), "clients are cut off too");
        assert!(!blocks(15, r(0), r(0)), "a node still reaches itself");
        assert!(
            !blocks(15, r(4), r(5)),
            "outside the isolated node traffic flows"
        );
        assert!(!blocks(20, r(0), r(5)), "healed at the window's end");
        let everywhere = cut(NodeMatcher::Any, NodeMatcher::Any);
        let at = SimTime::from_millis(15);
        assert!(everywhere.applies(at, c(1), r(1)));
        assert!(
            !everywhere.applies(at, r(1), r(1)),
            "no link fault applies to a message a node sends itself"
        );
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
