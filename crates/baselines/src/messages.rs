//! Messages exchanged by the baseline systems.

use basil_common::{Key, Timestamp, TxId, Value};
use basil_store::{Transaction, Vote};
use std::sync::Arc;

/// A request that must be ordered (BFT baselines) or executed directly
/// (TAPIR) by a shard.
#[derive(Clone, Debug)]
pub enum ShardRequest {
    /// 2PC prepare: validate the transaction's reads and lock its writes.
    Prepare {
        /// The transaction, shared across the per-replica fan-out and the
        /// consensus batches that carry it.
        tx: Arc<Transaction>,
    },
    /// 2PC decision: commit or abort a previously prepared transaction.
    Decide {
        /// The transaction.
        txid: TxId,
        /// True to commit, false to abort.
        commit: bool,
    },
}

impl ShardRequest {
    /// The transaction the request concerns.
    pub fn txid(&self) -> TxId {
        match self {
            ShardRequest::Prepare { tx } => tx.id(),
            ShardRequest::Decide { txid, .. } => *txid,
        }
    }
}

/// Client-side timers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineClientTimer {
    /// A read has not gathered enough replies.
    ReadTimeout {
        /// The outstanding read request.
        req_id: u64,
    },
    /// A prepare has not completed.
    PrepareTimeout {
        /// The transaction being prepared.
        txid: TxId,
    },
    /// A decide has not been acknowledged.
    DecideTimeout {
        /// The transaction being decided.
        txid: TxId,
    },
    /// Retry backoff elapsed.
    RetryBackoff,
}

/// Every message of the baseline systems.
#[derive(Clone, Debug)]
pub enum BaselineMsg {
    /// Client -> replica: read the current committed value of a key.
    Read {
        /// Request identifier echoed in the reply.
        req_id: u64,
        /// Key to read.
        key: Key,
    },
    /// Replica -> client: read reply with the installed version and value.
    ReadReply {
        /// Echo of the request identifier.
        req_id: u64,
        /// Key read.
        key: Key,
        /// Version identifier of the installed value.
        version: Timestamp,
        /// The value.
        value: Value,
    },
    /// Client -> shard (leader for ordered systems, every replica for TAPIR):
    /// submit a request.
    Submit {
        /// The request.
        request: ShardRequest,
    },
    /// Replica -> client: result of an executed prepare.
    PrepareResult {
        /// The transaction.
        txid: TxId,
        /// The replica's OCC vote.
        vote: Vote,
    },
    /// Replica -> client: acknowledgement of an executed decide.
    DecideAck {
        /// The transaction.
        txid: TxId,
    },
    /// Leader -> replicas: phase `phase` of the ordering protocol for
    /// instance `seq`. The batch payload is carried only in phase 0.
    OrderPhase {
        /// Consensus instance (sequence number).
        seq: u64,
        /// Phase index.
        phase: u32,
        /// The batch being agreed on (only in phase 0).
        batch: Option<Vec<(basil_common::NodeId, ShardRequest)>>,
    },
    /// Replica -> leader: vote for phase `phase` of instance `seq`.
    OrderVote {
        /// Consensus instance.
        seq: u64,
        /// Phase index.
        phase: u32,
    },
    /// Leader -> replicas: instance `seq` is ordered; execute its batch.
    OrderCommit {
        /// Consensus instance.
        seq: u64,
    },
    /// Leader self-message: flush a partially filled batch.
    BatchTimer,
    /// Client self-message timers.
    ClientTimer(BaselineClientTimer),
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::ClientId;
    use basil_store::TransactionBuilder;

    #[test]
    fn shard_request_txid_is_consistent() {
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(5, ClientId(1)));
        b.record_write(Key::new("k"), Value::from_u64(1));
        let tx = b.build_shared();
        let id = tx.id();
        assert_eq!(ShardRequest::Prepare { tx }.txid(), id);
        assert_eq!(
            ShardRequest::Decide {
                txid: id,
                commit: true
            }
            .txid(),
            id
        );
    }
}
