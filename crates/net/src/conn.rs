//! The TCP connection manager: bounded outbound queues, reconnect with
//! deterministic-jitter exponential backoff, and frame reassembly on the
//! inbound path.
//!
//! Topology is an address book: every node (replica or client) listens on
//! its own localhost port, and a node that wants to send connects to the
//! destination's port. Connections are one-directional; a replica's reply
//! to a client flows over the replica's own outbound connection, not back
//! down the inbound one. That keeps the manager symmetric — there is one
//! code path, "deliver this frame to that peer", with no connection-reuse
//! protocol to get wrong.
//!
//! Failure discipline, matching the issue's requirements:
//!
//! * **A dead or partitioned peer degrades throughput, never wedges.** All
//!   sends are `try_send` into a bounded per-peer queue; when the queue is
//!   full the frame is shed and counted. The writer thread absorbs connect
//!   failures with exponential backoff, so a peer that is down costs a
//!   bounded queue of stale frames and some retry sleeps — nothing blocks
//!   the protocol thread, and the protocol's own retransmission timers
//!   recover whatever was shed.
//! * **A malformed frame is a peer fault, not our crash.** The reader drops
//!   the connection carrying it and counts the event; decoding is total
//!   (see [`crate::wire`]).

use crate::wire::FrameReader;
use basil_common::NodeId;
use basil_core::messages::BasilMsg;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Counters shared across the manager's threads. All relaxed: they are
/// telemetry, not synchronization.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Frames handed to the OS (write_all returned).
    pub frames_sent: AtomicU64,
    /// Frames shed: outbound queue full, dropped after a failed
    /// connect/write (the protocol's retransmission timers cover these), or
    /// refused by the encoder as larger than `MAX_FRAME`.
    pub frames_shed: AtomicU64,
    /// Frames received and decoded.
    pub frames_received: AtomicU64,
    /// Malformed frames (each one also dropped its connection).
    pub malformed_frames: AtomicU64,
    /// Connection attempts that failed and triggered a backoff sleep.
    pub reconnect_attempts: AtomicU64,
}

impl NetStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Tuning knobs for the connection manager.
#[derive(Clone, Debug)]
pub struct ConnOptions {
    /// Per-peer outbound queue capacity (frames). Beyond this, sends shed.
    pub outbound_queue: usize,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Read timeout on inbound connections (a poll interval: timeouts are
    /// not errors, they just re-check the shutdown flag).
    pub read_timeout: Duration,
    /// Base delay of the exponential reconnect backoff.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl Default for ConnOptions {
    fn default() -> Self {
        ConnOptions {
            outbound_queue: 1024,
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_millis(100),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
        }
    }
}

/// The reconnect delay before attempt number `attempt` (0-based): the base
/// doubled per attempt, capped at `max`, plus deterministic jitter derived
/// from `seed` and `attempt` (up to half the capped delay). Deterministic
/// jitter keeps tests reproducible while still de-synchronizing a thundering
/// herd of reconnecting peers, each of which passes its own seed.
pub fn reconnect_backoff(base: Duration, max: Duration, attempt: u32, seed: u64) -> Duration {
    let base_nanos = base.as_nanos().min(u128::from(u64::MAX)) as u64;
    let max_nanos = max.as_nanos().min(u128::from(u64::MAX)) as u64;
    let exp = base_nanos
        .saturating_mul(1u64.checked_shl(attempt.min(32)).unwrap_or(u64::MAX))
        .min(max_nanos);
    // xorshift* over (seed, attempt): cheap, stateless, deterministic.
    let mut x = seed ^ (u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let jitter = if exp == 0 { 0 } else { x % (exp / 2 + 1) };
    Duration::from_nanos(
        exp.saturating_add(jitter)
            .min(max_nanos.saturating_mul(3) / 2),
    )
}

/// One peer's outbound lane: a bounded queue drained by a dedicated writer
/// thread that owns the (re)connect loop.
struct Outbound {
    queue: SyncSender<Vec<u8>>,
}

/// The connection manager for one node process.
pub struct ConnManager {
    peers: Mutex<HashMap<NodeId, Outbound>>,
    addrs: HashMap<NodeId, SocketAddr>,
    opts: ConnOptions,
    seed: u64,
    stats: Arc<NetStats>,
    closed: Arc<AtomicBool>,
    inbound_tx: Sender<(NodeId, BasilMsg)>,
}

/// The inbound event channel: every decoded `(sender, message)` pair from
/// all live connections, in arrival order.
pub type InboundReceiver = Receiver<(NodeId, BasilMsg)>;

impl ConnManager {
    /// Binds `listen` and starts the accept loop. Returns the manager and
    /// the inbound event channel carrying every decoded `(sender, message)`
    /// pair from all connections.
    ///
    /// `addrs` is the full deployment address book (this node may be
    /// included; its own entry is ignored). `seed` feeds the deterministic
    /// backoff jitter.
    pub fn start(
        listen: SocketAddr,
        addrs: HashMap<NodeId, SocketAddr>,
        opts: ConnOptions,
        seed: u64,
    ) -> std::io::Result<(Arc<ConnManager>, InboundReceiver)> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let (inbound_tx, inbound_rx) = mpsc::channel();
        let mgr = Arc::new(ConnManager {
            peers: Mutex::new(HashMap::new()),
            addrs,
            opts,
            seed,
            stats: Arc::new(NetStats::default()),
            closed: Arc::new(AtomicBool::new(false)),
            inbound_tx,
        });
        let accept_mgr = Arc::clone(&mgr);
        std::thread::spawn(move || accept_mgr.accept_loop(listener));
        Ok((mgr, inbound_rx))
    }

    /// Shared counters.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Signals every thread to exit at its next poll.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Enqueues an already-encoded frame for `to`. Never blocks: a full
    /// queue or an unknown destination sheds the frame and counts it.
    pub fn send_frame(&self, to: NodeId, frame: Vec<u8>) {
        let Some(addr) = self.addrs.get(&to).copied() else {
            NetStats::bump(&self.stats.frames_shed);
            return;
        };
        let mut peers = self.peers.lock().expect("peer table poisoned");
        let lane = peers.entry(to).or_insert_with(|| self.spawn_writer(addr));
        match lane.queue.try_send(frame) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                NetStats::bump(&self.stats.frames_shed);
            }
        }
    }

    /// Starts the writer thread for one peer and returns its queue handle.
    fn spawn_writer(&self, addr: SocketAddr) -> Outbound {
        let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(self.opts.outbound_queue);
        let opts = self.opts.clone();
        let stats = Arc::clone(&self.stats);
        let closed = Arc::clone(&self.closed);
        // Per-peer jitter seed: ports differ, so herds de-synchronize.
        let seed = self.seed ^ u64::from(addr.port()).wrapping_mul(0xD1B5_4A32_D192_ED03);
        std::thread::spawn(move || writer_loop(addr, rx, opts, stats, closed, seed));
        Outbound { queue: tx }
    }

    /// Accepts inbound connections until shutdown, one reader thread each.
    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        while !self.closed.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let mgr = Arc::clone(&self);
                    std::thread::spawn(move || mgr.reader_loop(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Reads one connection to completion: reassemble frames, decode, and
    /// forward. The first malformed frame (or any IO error other than a
    /// read timeout) ends the connection.
    fn reader_loop(self: Arc<Self>, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(self.opts.read_timeout));
        let mut stream = stream;
        let mut frames = FrameReader::new();
        let mut buf = [0u8; 16 * 1024];
        while !self.closed.load(Ordering::SeqCst) {
            match stream.read(&mut buf) {
                Ok(0) => return, // peer closed
                Ok(n) => {
                    frames.extend(&buf[..n]);
                    loop {
                        match frames.next_msg() {
                            Ok(Some((from, msg))) => {
                                NetStats::bump(&self.stats.frames_received);
                                if self.inbound_tx.send((from, msg)).is_err() {
                                    return; // runtime gone
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // Malformed frame: evidence of a faulty
                                // peer. Count it and drop the connection.
                                NetStats::bump(&self.stats.malformed_frames);
                                return;
                            }
                        }
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue; // poll interval: re-check the shutdown flag
                }
                Err(_) => return,
            }
        }
    }
}

/// Drains one peer's queue onto a TCP stream, (re)connecting as needed.
///
/// A frame that cannot be delivered — connect failed, or the write errored —
/// is shed rather than retried: the queue keeps draining at backoff speed,
/// memory stays bounded, and when the peer returns it sees *fresh* traffic
/// instead of a replay of stale frames (the protocol's timers regenerate
/// anything that mattered).
fn writer_loop(
    addr: SocketAddr,
    rx: Receiver<Vec<u8>>,
    opts: ConnOptions,
    stats: Arc<NetStats>,
    closed: Arc<AtomicBool>,
    seed: u64,
) {
    let mut stream: Option<TcpStream> = None;
    let mut attempt: u32 = 0;
    loop {
        let frame = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(f) => f,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if closed.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        if closed.load(Ordering::SeqCst) {
            return;
        }
        if stream.is_none() {
            match TcpStream::connect_timeout(&addr, opts.connect_timeout) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    stream = Some(s);
                    attempt = 0;
                }
                Err(_) => {
                    NetStats::bump(&stats.reconnect_attempts);
                    NetStats::bump(&stats.frames_shed);
                    std::thread::sleep(reconnect_backoff(
                        opts.backoff_base,
                        opts.backoff_max,
                        attempt,
                        seed,
                    ));
                    attempt = attempt.saturating_add(1);
                    continue;
                }
            }
        }
        let ok = stream
            .as_mut()
            .map(|s| s.write_all(&frame).is_ok())
            .unwrap_or(false);
        if ok {
            NetStats::bump(&stats.frames_sent);
        } else {
            // Write error: the connection is gone. Shed this frame and
            // reconnect for the next one.
            stream = None;
            NetStats::bump(&stats.frames_shed);
        }
    }
}
