//! Simulation metrics: message counts, CPU utilization, queueing.

use basil_common::{Duration, NodeId, SimTime};
use std::collections::HashMap;

/// Per-node metrics collected by the simulator.
#[derive(Clone, Debug, Default)]
pub struct NodeMetrics {
    /// Messages whose handler has run on this node.
    pub messages_processed: u64,
    /// Timers fired on this node.
    pub timers_fired: u64,
    /// Total CPU time charged by this node's handlers.
    pub cpu_busy: Duration,
    /// Total time messages spent waiting for a free core before processing.
    pub queue_wait: Duration,
    /// Messages sent by this node.
    pub messages_sent: u64,
}

impl NodeMetrics {
    /// CPU utilization of this node over a window of `elapsed` wall time,
    /// normalized by `cores`.
    pub fn utilization(&self, elapsed: Duration, cores: u32) -> f64 {
        if elapsed == Duration::ZERO || cores == 0 {
            return 0.0;
        }
        self.cpu_busy.as_nanos() as f64 / (elapsed.as_nanos() as f64 * cores as f64)
    }
}

/// Whole-simulation metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to a handler.
    pub messages_delivered: u64,
    /// Messages and timers never handled: a link fault dropped or garbled
    /// the message, its destination was crashed or unknown, or the timer
    /// belonged to a replaced incarnation or was parked across an amnesia
    /// restart.
    pub messages_dropped: u64,
    /// Messages a [`crate::network::LinkFaultKind::Corrupt`] fault hit; each
    /// is discarded as a detected garble and also counted in
    /// `messages_dropped`.
    pub messages_corrupted: u64,
    /// Messages a [`crate::network::LinkFaultKind::Replay`] fault
    /// duplicated.
    pub messages_replayed: u64,
    /// Events processed by the simulator loop.
    pub events_processed: u64,
    /// Per-node breakdown.
    pub per_node: HashMap<NodeId, NodeMetrics>,
    /// Time of the last processed event.
    pub last_event_at: SimTime,
}

impl Metrics {
    /// The metrics entry for `node`, if the node has done anything yet.
    pub fn node(&self, node: NodeId) -> Option<&NodeMetrics> {
        self.per_node.get(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let m = NodeMetrics {
            cpu_busy: Duration::from_millis(500),
            ..Default::default()
        };
        let u = m.utilization(Duration::from_secs(1), 1);
        assert!((u - 0.5).abs() < 1e-9);
        let u8c = m.utilization(Duration::from_secs(1), 8);
        assert!((u8c - 0.0625).abs() < 1e-9);
        assert_eq!(m.utilization(Duration::ZERO, 1), 0.0);
    }
}
