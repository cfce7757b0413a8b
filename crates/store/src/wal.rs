//! Simulated durable write-ahead log.
//!
//! Replicas log their externally visible state transitions — prepare votes,
//! logged decisions, raised fallback views, applied decision certificates,
//! and GC watermarks — to an
//! append-only record log so that an *amnesia* restart (the actor is rebuilt
//! from scratch, as after a real process crash) can reconstruct the store and
//! transaction records it had before the crash. The log lives in memory
//! because the whole system is simulated, but the seam is shaped like a disk:
//!
//! * Every record is one `basil_crypto::frame` frame, written and parsed
//!   through `basil_common::codec`. A crash can tear the tail of the log
//!   mid-frame; recovery truncates at the first frame whose length or check
//!   does not hold and never panics, exactly like a production WAL
//!   discarding a torn tail.
//! * An append costs no simulated time: the model is an always-warm write
//!   cache, and the log is never fsynced.
//!
//! The record set is deliberately minimal: a [`WalRecord::Prepare`] carries
//! the full transaction (its canonical encoding is self-delimiting and
//! hash-verifiable), decisions and applies are keyed by transaction id, and
//! [`WalRecord::Applied`] optionally re-ships the transaction so commit
//! replay can re-install writes without consulting any peer.

use crate::tx::Transaction;
use basil_common::codec::{DecodeError, Reader, Sink};
use basil_common::{Duration, Timestamp, TxId};
use basil_crypto::frame;
use std::sync::Arc;

const TAG_PREPARE: u8 = 0x01;
const TAG_DECISION: u8 = 0x02;
const TAG_APPLIED: u8 = 0x03;
const TAG_GC_WATERMARK: u8 = 0x04;
const TAG_VIEW: u8 = 0x05;

/// One durable state transition of a replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// The replica voted on a prepare: the concurrency-control outcome
    /// (`commit` = true for a commit vote) together with the full
    /// transaction, so replay can re-run the prepare against the rebuilt
    /// store.
    Prepare {
        /// Whether the replica's vote was commit.
        commit: bool,
        /// The transaction that was prepared.
        tx: Arc<Transaction>,
    },
    /// The replica logged a decision for `txid` in `view`: a client's ST2
    /// in view 0, or a fallback leader's DecFB in a higher view.
    Decision {
        /// The transaction the decision is for.
        txid: TxId,
        /// Whether the logged decision was commit.
        commit: bool,
        /// The fallback view the decision was logged in (0 on the common
        /// path).
        view: u64,
    },
    /// The replica moved to fallback view `view` for `txid` on an InvokeFB,
    /// before sending its ElectFB of that view. Replay keeps the view, so a
    /// recovered replica refuses a DecFB of a lower view as its pre-crash
    /// self would have (Section 5).
    View {
        /// The transaction whose fallback view rose.
        txid: TxId,
        /// The new current view.
        view: u64,
    },
    /// The replica validated a decision certificate and applied it to the
    /// store. Commits carry the transaction so replay can re-install the
    /// writes; aborts only need the id.
    Applied {
        /// The decided transaction.
        txid: TxId,
        /// Whether the applied decision was commit.
        commit: bool,
        /// The transaction body, present for commits when the replica had it.
        tx: Option<Arc<Transaction>>,
    },
    /// A garbage-collection sweep trimmed store bookkeeping below this
    /// watermark. Replay re-applies the highest watermark so a recovered
    /// replica refuses the same stale timestamps its pre-crash self would
    /// have.
    GcWatermark {
        /// The inclusive trim bound passed to `MvtsoStore::gc_before`.
        watermark: Timestamp,
    },
}

impl WalRecord {
    fn write(&self, out: &mut impl Sink) {
        match self {
            WalRecord::Prepare { commit, tx } => {
                out.put_u8(TAG_PREPARE);
                out.put_bool(*commit);
                out.put_bytes(tx.encoded());
            }
            WalRecord::Decision { txid, commit, view } => {
                out.put_u8(TAG_DECISION);
                out.put_txid(txid);
                out.put_bool(*commit);
                out.put_u64(*view);
            }
            WalRecord::View { txid, view } => {
                out.put_u8(TAG_VIEW);
                out.put_txid(txid);
                out.put_u64(*view);
            }
            WalRecord::Applied { txid, commit, tx } => {
                out.put_u8(TAG_APPLIED);
                out.put_txid(txid);
                out.put_bool(*commit);
                out.put_opt(tx.as_deref(), |out, tx| out.put_bytes(tx.encoded()));
            }
            WalRecord::GcWatermark { watermark } => {
                out.put_u8(TAG_GC_WATERMARK);
                out.put_ts(*watermark);
            }
        }
    }

    fn read(payload: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            TAG_PREPARE => WalRecord::Prepare {
                commit: r.bool()?,
                tx: Arc::new(Transaction::read(&mut r)?),
            },
            TAG_DECISION => WalRecord::Decision {
                txid: r.txid()?,
                commit: r.bool()?,
                view: r.u64()?,
            },
            TAG_VIEW => WalRecord::View {
                txid: r.txid()?,
                view: r.u64()?,
            },
            TAG_APPLIED => WalRecord::Applied {
                txid: r.txid()?,
                commit: r.bool()?,
                tx: r.opt(|r| Transaction::read(r).map(Arc::new))?,
            },
            TAG_GC_WATERMARK => WalRecord::GcWatermark { watermark: r.ts()? },
            tag => return Err(DecodeError::BadTag { tag }),
        };
        r.finish()?;
        Ok(record)
    }
}

/// An append-only, checksum-framed record log behind a simulated
/// durable-storage seam.
///
/// The byte buffer is the "disk": it survives an amnesia restart (the
/// cluster harness hands it to the replacement actor) while everything else
/// about the actor is rebuilt from scratch.
#[derive(Clone, Debug)]
pub struct Wal {
    buf: Vec<u8>,
    appends: u64,
}

impl Wal {
    /// Creates an empty log. The `Duration` is ignored: it is named by
    /// `benchmark/`; the next `benchmark` PR removes it.
    pub fn new(_: Duration) -> Self {
        Wal {
            buf: Vec::new(),
            appends: 0,
        }
    }

    /// Appends a record.
    pub fn append(&mut self, record: &WalRecord) {
        frame::seal(&mut self.buf, |out| record.write(out));
        self.appends += 1;
    }

    /// Number of records appended since creation or recovery.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Size of the log in bytes.
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// The raw log bytes (the simulated disk image).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Takes the log bytes out, leaving the log empty. The cluster harness
    /// uses this to carry the "disk" from a crashed actor to its amnesia
    /// replacement.
    pub fn take_bytes(&mut self) -> Vec<u8> {
        self.appends = 0;
        std::mem::take(&mut self.buf)
    }

    /// Replays a log image recovered from a crash. Returns the recovered log
    /// (truncated to its longest valid prefix, ready for further appends) and
    /// the decoded records in append order. A torn or corrupted tail — a
    /// frame whose length overruns the buffer, whose checksum does not match,
    /// or whose payload does not decode — ends the replay at the last good
    /// frame; this never panics. The `Duration` is ignored: it is named by
    /// `benchmark/`; the next `benchmark` PR removes it.
    pub fn recover(bytes: Vec<u8>, _: Duration) -> (Wal, Vec<WalRecord>) {
        let mut records = Vec::new();
        let mut pos = 0usize;
        // A frame that is incomplete (torn tail), fails its check (bit rot,
        // a torn rewrite) or holds no record ends the trusted prefix.
        while let Ok(Some((payload, consumed))) = frame::split(&bytes[pos..], usize::MAX) {
            let Ok(record) = WalRecord::read(payload) else {
                break;
            };
            records.push(record);
            pos += consumed;
        }
        let mut buf = bytes;
        buf.truncate(pos);
        (
            Wal {
                buf,
                appends: records.len() as u64,
            },
            records,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tx::TransactionBuilder;
    use basil_common::{ClientId, Key, Value};

    fn ts(t: u64, c: u64) -> Timestamp {
        Timestamp::from_nanos(t, ClientId(c))
    }

    fn sample_tx(seed: u64) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(ts(100 + seed, 1));
        b.record_read(Key::new("x"), ts(50, 2));
        b.record_dependent_read(Key::new("y"), ts(60, 3), TxId::from_bytes([7; 32]));
        b.record_write(Key::new("z"), Value::from_u64(seed));
        b.build_shared()
    }

    pub(crate) fn sample_records() -> Vec<WalRecord> {
        let tx = sample_tx(1);
        vec![
            WalRecord::Prepare {
                commit: true,
                tx: tx.clone(),
            },
            WalRecord::Decision {
                txid: tx.id(),
                commit: true,
                view: 3,
            },
            WalRecord::View {
                txid: tx.id(),
                view: 4,
            },
            WalRecord::Applied {
                txid: tx.id(),
                commit: true,
                tx: Some(tx.clone()),
            },
            WalRecord::Applied {
                txid: TxId::from_bytes([9; 32]),
                commit: false,
                tx: None,
            },
            WalRecord::GcWatermark {
                watermark: ts(42, 5),
            },
        ]
    }

    #[test]
    fn append_and_recover_round_trips_every_record_kind() {
        let mut wal = Wal::new(Duration::ZERO);
        let records = sample_records();
        for r in &records {
            wal.append(r);
        }
        assert_eq!(wal.appends(), records.len() as u64);
        let image = wal.take_bytes();
        assert_eq!(wal.len_bytes(), 0, "take_bytes drains the log");

        let (recovered, replayed) = Wal::recover(image.clone(), Duration::ZERO);
        assert_eq!(replayed, records);
        assert_eq!(recovered.bytes(), &image[..], "full image was valid");

        // Replayed transactions hash to the same id as the originals.
        if let WalRecord::Prepare { tx, .. } = &replayed[0] {
            assert_eq!(tx.id(), sample_tx(1).id());
            assert_eq!(tx.encoded(), sample_tx(1).encoded());
        } else {
            panic!("first record is the prepare");
        }
    }

    #[test]
    fn torn_tail_truncates_at_the_last_good_frame() {
        let mut wal = Wal::new(Duration::ZERO);
        let records = sample_records();
        for r in &records {
            wal.append(r);
        }
        let image = wal.take_bytes();

        // Chop the image at every possible torn point: recovery must never
        // panic and must replay exactly the records whose frames survived.
        for cut in 0..image.len() {
            let (recovered, replayed) = Wal::recover(image[..cut].to_vec(), Duration::ZERO);
            assert!(replayed.len() <= records.len());
            assert_eq!(replayed, records[..replayed.len()]);
            assert!(
                recovered.len_bytes() <= cut,
                "log truncated to valid prefix"
            );
        }
    }

    #[test]
    fn corrupted_frame_stops_the_replay_without_panicking() {
        let mut wal = Wal::new(Duration::ZERO);
        let records = sample_records();
        for r in &records {
            wal.append(r);
        }
        let image = wal.take_bytes();

        // Flip one byte at every offset; replay must never panic and never
        // return a record that differs from the original sequence prefix
        // (the frame containing the flip fails its checksum, except flips in
        // a length field, which instead misalign and fail framing).
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x41;
            let (_, replayed) = Wal::recover(bad, Duration::ZERO);
            for (got, want) in replayed.iter().zip(records.iter()) {
                assert_eq!(got, want, "flip at {i} produced a divergent record");
            }
            assert!(replayed.len() < records.len(), "flip at {i} went unnoticed");
        }
    }

    #[test]
    fn recovered_log_accepts_further_appends() {
        let mut wal = Wal::new(Duration::ZERO);
        wal.append(&WalRecord::GcWatermark {
            watermark: ts(5, 0),
        });
        let (mut recovered, replayed) = Wal::recover(wal.take_bytes(), Duration::ZERO);
        assert_eq!(replayed.len(), 1);
        recovered.append(&WalRecord::Decision {
            txid: TxId::from_bytes([1; 32]),
            commit: false,
            view: 0,
        });
        let (_, all) = Wal::recover(recovered.take_bytes(), Duration::ZERO);
        assert_eq!(all.len(), 2, "old and new frames both replay");
    }

    #[test]
    fn garbage_input_recovers_to_an_empty_log() {
        let (wal, replayed) = Wal::recover(vec![0xFF; 300], Duration::ZERO);
        assert!(replayed.is_empty());
        assert_eq!(wal.len_bytes(), 0);
        let (wal, replayed) = Wal::recover(Vec::new(), Duration::ZERO);
        assert!(replayed.is_empty());
        assert_eq!(wal.appends(), 0);
    }
}
