//! Per-transaction view management for the fallback protocol (Section 5).
//!
//! Each transaction has its own sequence of views; view 0 belongs to the
//! original client, higher views to fallback leaders chosen round-robin among
//! the logging shard's replicas. Replicas advance their current view for a
//! transaction using two rules driven by the set of (signed) current views a
//! client includes in `InvokeFB`:
//!
//! * **R1**: a view `v` reported by at least `3f + 1` replicas lets the
//!   replica adopt `max(v + 1, current)`.
//! * **R2**: otherwise, the replica adopts the largest view larger than its
//!   own that is reported by at least `f + 1` replicas.
//!
//! Counting uses *vote subsumption*: a reported view `v` counts as a vote for
//! every `v' <= v`.
//!
//! A view's leader reconciles the decisions its `4f + 1` ElectFBs report with
//! [`reconcile`], and every replica checks a DecFB against the same rule.

use crate::messages::View;
use basil_common::{ShardConfig, ShardId, TxId};
use basil_store::Decision;

/// Applies rules R1/R2 with vote subsumption and returns the new current
/// view for a replica whose current view is `current`.
pub fn next_view(current: View, reported: &[View], cfg: &ShardConfig) -> View {
    // With subsumption, the number of votes for view v is the number of
    // reported views >= v.
    let votes_for = |v: View| reported.iter().filter(|r| **r >= v).count() as u32;

    // R1: find the largest view v with >= 3f + 1 (subsuming) votes; adopting
    // v + 1 is justified.
    let mut best = current;
    let mut candidates: Vec<View> = reported.to_vec();
    candidates.sort_unstable();
    candidates.dedup();
    for &v in candidates.iter().rev() {
        if votes_for(v) >= cfg.view_r1_quorum() {
            best = best.max(v + 1);
            break;
        }
    }
    // R2: the largest view greater than the current one reported by at least
    // f + 1 replicas.
    for &v in candidates.iter().rev() {
        if v > best && votes_for(v) >= cfg.view_r2_quorum() {
            best = v;
            break;
        }
    }
    best
}

/// The replica index acting as fallback leader for `view` of transaction
/// `txid` within a shard of `n` replicas (round-robin, offset by the
/// transaction id as in Section 5, step 2).
///
/// The view may come from a peer, unchecked, so the sum wraps.
pub fn fallback_leader_index(view: View, txid: TxId, n: u32) -> u32 {
    (view.wrapping_add(txid.as_u64()) % n as u64) as u32
}

/// The decision a fallback leader proposes for the logged decisions its
/// election reports (`None` for a replica that logged nothing): the majority,
/// with a tie going to Commit. `None` when no elector logged anything, since
/// then nothing is safe to propose.
pub fn reconcile(logged: impl IntoIterator<Item = Option<Decision>>) -> Option<Decision> {
    let (mut commits, mut aborts) = (0u32, 0u32);
    for decision in logged.into_iter().flatten() {
        match decision {
            Decision::Commit => commits += 1,
            Decision::Abort => aborts += 1,
        }
    }
    match (commits, aborts) {
        (0, 0) => None,
        _ if commits >= aborts => Some(Decision::Commit),
        _ => Some(Decision::Abort),
    }
}

/// The logging shard `S_log` of transaction `txid`: the one involved shard
/// whose replicas log its ST2 decision and run its fallback elections
/// (Section 4.2, stage ST2). Everyone derives it from the transaction alone —
/// the client that proposes, the replica that is asked to log, the validator
/// of a slow-path certificate — so a decision acknowledged anywhere else
/// proves nothing. `None` only for a transaction that involves no shard.
pub fn logging_shard(txid: TxId, involved: &[ShardId]) -> Option<ShardId> {
    let n = involved.len() as u64;
    (n > 0).then(|| involved[(txid.as_u64() % n) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ShardConfig {
        ShardConfig::new(1) // n=6, R1 quorum 4, R2 quorum 2
    }

    #[test]
    fn r1_advances_past_a_widely_reported_view() {
        // 4 replicas report view 0 -> adopt view 1.
        assert_eq!(next_view(0, &[0, 0, 0, 0, 0], &cfg()), 1);
        // 4 replicas report view 2 (subsume 0 and 1) -> adopt 3.
        assert_eq!(next_view(0, &[2, 2, 2, 2], &cfg()), 3);
    }

    #[test]
    fn r2_catches_up_to_a_plausible_higher_view() {
        // Only 2 replicas report view 3: not enough for R1, enough for R2.
        assert_eq!(next_view(0, &[3, 3, 0, 0], &cfg()), 3);
        // A single report of view 9 is ignored (could be Byzantine).
        assert_eq!(next_view(0, &[9, 0, 0, 0], &cfg()), 1);
    }

    #[test]
    fn subsumption_counts_higher_views_for_lower_ones() {
        // Reports: 2, 2, 1, 1 -> view 1 has 4 subsuming votes (R1) -> adopt 2;
        // then R2 lets the replica ride up to 2 only (already there).
        assert_eq!(next_view(0, &[2, 2, 1, 1], &cfg()), 2);
    }

    #[test]
    fn never_moves_backwards() {
        assert_eq!(next_view(5, &[0, 0, 0, 0], &cfg()), 5);
        assert_eq!(next_view(5, &[4, 4, 4, 4], &cfg()), 5);
        assert_eq!(next_view(5, &[6, 6], &cfg()), 6);
    }

    #[test]
    fn empty_reports_keep_current_view() {
        assert_eq!(next_view(2, &[], &cfg()), 2);
    }

    #[test]
    fn r1_and_r2_combine() {
        // 4 reports of view 1 (R1 -> 2), plus 2 reports of view 4 (R2 -> 4).
        assert_eq!(next_view(0, &[1, 1, 1, 1, 4, 4], &cfg()), 4);
    }

    #[test]
    fn leader_rotates_with_view_and_transaction() {
        let t1 = TxId::from_bytes([0; 32]);
        let n = 6;
        let l0 = fallback_leader_index(1, t1, n);
        let l1 = fallback_leader_index(2, t1, n);
        assert_ne!(l0, l1);
        assert_eq!((l0 + 1) % n, l1);
        // Different transactions map to different leaders for the same view.
        let mut bytes = [0u8; 32];
        bytes[7] = 3;
        let t2 = TxId::from_bytes(bytes);
        assert_ne!(
            fallback_leader_index(1, t1, n),
            fallback_leader_index(1, t2, n)
        );
        // Every view has a leader within range, the largest one too.
        for v in (0..20).chain([u64::MAX]) {
            assert!(fallback_leader_index(v, t2, n) < n);
        }
    }

    #[test]
    fn reconcile_picks_the_majority_and_ties_go_to_commit() {
        use Decision::{Abort, Commit};
        assert_eq!(
            reconcile([Some(Commit), Some(Abort), Some(Abort)]),
            Some(Abort)
        );
        assert_eq!(
            reconcile([Some(Commit), Some(Abort), None, None]),
            Some(Commit)
        );
        assert_eq!(reconcile([None, Some(Abort), None]), Some(Abort));
        assert_eq!(reconcile([None, None]), None);
    }

    #[test]
    fn logging_shard_is_deterministic_and_among_involved() {
        let involved = vec![ShardId(0), ShardId(1), ShardId(2)];
        let txid = TxId::from_bytes([7; 32]);
        let a = logging_shard(txid, &involved).expect("shards are involved");
        let b = logging_shard(txid, &involved).expect("shards are involved");
        assert_eq!(a, b);
        assert!(involved.contains(&a));
        assert_eq!(logging_shard(txid, &[]), None);
    }
}
