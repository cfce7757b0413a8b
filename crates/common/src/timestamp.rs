//! Multiversion transaction timestamps.
//!
//! A Basil transaction is assigned a timestamp `ts = (Time, ClientID)` chosen
//! by the client at `Begin()` (Section 4.1). The pair defines a total
//! serialization order across all clients: timestamps are compared first by
//! wall-clock component and then by client identifier to break ties.

use crate::ids::ClientId;
use crate::time::{Duration, SimTime};
use std::fmt;

/// A transaction timestamp: `(time, client)`.
///
/// The ordering derived here *is* the serialization order MVTSO enforces, so
/// it is critical that it is total and antisymmetric; the derived
/// lexicographic ordering over `(time, client)` provides that because client
/// identifiers are unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    /// Wall-clock component, in nanoseconds of the client's local clock.
    pub time: u64,
    /// Identifier of the client that issued the transaction.
    pub client: ClientId,
}

impl Timestamp {
    /// The smallest possible timestamp; versions loaded at initialization use it.
    pub const ZERO: Timestamp = Timestamp {
        time: 0,
        client: ClientId(0),
    };

    /// Creates a timestamp from a local clock reading and the issuing client.
    pub fn new(time: SimTime, client: ClientId) -> Self {
        Timestamp {
            time: time.as_nanos(),
            client,
        }
    }

    /// Creates a timestamp directly from raw nanoseconds.
    pub fn from_nanos(time: u64, client: ClientId) -> Self {
        Timestamp { time, client }
    }

    /// Returns true if this timestamp's wall-clock component exceeds
    /// `clock + delta`, i.e. if a replica with local clock `clock` and
    /// tolerance `delta` must reject it (Algorithm 1, lines 1-2).
    pub fn exceeds_bound(&self, clock: SimTime, delta: Duration) -> bool {
        self.time > clock.as_nanos().saturating_add(delta.as_nanos())
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts({}, {})", self.time, self.client)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_time_then_client() {
        let a = Timestamp::from_nanos(10, ClientId(5));
        let b = Timestamp::from_nanos(10, ClientId(6));
        let c = Timestamp::from_nanos(11, ClientId(1));
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
    }

    #[test]
    fn ordering_is_total_for_distinct_clients() {
        let a = Timestamp::from_nanos(10, ClientId(1));
        let b = Timestamp::from_nanos(10, ClientId(2));
        assert_ne!(a, b);
        assert!(a < b || b < a);
    }

    #[test]
    fn exceeds_bound_checks_delta_window() {
        let ts = Timestamp::from_nanos(1_500, ClientId(1));
        let clock = SimTime::from_nanos(1_000);
        assert!(!ts.exceeds_bound(clock, Duration::from_nanos(500)));
        assert!(ts.exceeds_bound(clock, Duration::from_nanos(499)));
    }

    #[test]
    fn zero_is_minimal() {
        let any = Timestamp::from_nanos(1, ClientId(0));
        assert!(Timestamp::ZERO < any);
        assert!(Timestamp::ZERO <= Timestamp::ZERO);
    }

    #[test]
    fn sim_time_round_trip() {
        let ts = Timestamp::new(SimTime::from_micros(7), ClientId(2));
        assert_eq!(ts, Timestamp::from_nanos(7_000, ClientId(2)));
    }
}
