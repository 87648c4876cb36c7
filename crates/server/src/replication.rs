//! Log-shipping replication: a primary streams its WAL to replicas.
//!
//! The engine's durability design makes replication almost free: every
//! mutation is already serialized through one writer mutex and appended
//! to the WAL (with its **post-op epochs**) before it is applied, so the
//! log *is* a complete, totally ordered description of the session. A
//! replica is simply a second engine, opened with
//! [`Engine::open_replica`], that applies that log through
//! [`Engine::apply_logged`] — the function crash recovery uses — and
//! serves the resulting epoch-tagged snapshots read-only. The replica
//! engine itself refuses client writes and answers `replication` from
//! its [`ReplicaStatus`].
//!
//! # Protocol
//!
//! A replica connects to the primary's ordinary request port and sends
//! one line, its current position:
//!
//! ```text
//! replicate <tcs_epoch> <data_epoch>
//! ```
//!
//! The primary answers with one of:
//!
//! * `ok replicate stream tcs=<t> data=<d>` — the retained log covers
//!   the replica's position; WAL frames follow immediately.
//! * `ok replicate snapshot tcs=<t> data=<d> len=<n>` — checkpointing
//!   has pruned the log past the replica's position. `<n>` raw bytes of
//!   the primary's newest checkpoint image follow, then WAL frames for
//!   everything after the image.
//! * `err …` — the handshake failed (memory-only primary, replica ahead
//!   of the primary, …).
//!
//! After the handshake the connection is a one-way stream of frames in
//! the WAL's own on-disk format — `[payload_len u32 LE][crc32 u32 LE]
//! [payload]` — carrying [`WalRecord`]s: `Op` records to apply, and
//! `Mark` records as heartbeats that advertise the primary's current
//! epochs (the replica derives its lag from them). Frames are CRC-checked
//! and epoch-verified on the replica: every applied op must re-derive
//! exactly the epochs the primary logged for it, or the replica drops
//! the connection rather than diverge silently.
//!
//! # Consistency
//!
//! The publish hook runs under the primary's writer mutex right after
//! the WAL append, so the live feed is gap-free and in log order. The
//! streamer subscribes to the feed *before* scanning the log for
//! catch-up records; the overlap between the two sources is removed by
//! a strictly-increasing epoch-sum filter (each logged op advances the
//! sum by exactly one). A replica applies through its own durable
//! engine, so it keeps its own WAL and checkpoints and rejoins from its
//! local position after a crash — `SIGKILL` on a replica loses nothing.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use magik_storage::{crc32, install_checkpoint, Store, WalRecord, MAX_FRAME_PAYLOAD};

use crate::engine::Engine;

/// Per-subscriber live-feed queue depth. A streamer that falls this far
/// behind the write rate is dropped from the hub (its replica reconnects
/// and catches up from the log) instead of back-pressuring writers.
const SUB_QUEUE: usize = 1024;

/// How long a streamer waits for a live record before sending a `Mark`
/// heartbeat, which doubles as the replica's lag signal.
const HEARTBEAT: Duration = Duration::from_millis(500);

/// Write timeout on a replication stream: a replica that stops draining
/// its socket for this long is dropped (it reconnects and catches up).
const STREAM_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Read timeout on the replica side. The primary heartbeats every
/// [`HEARTBEAT`], so this much silence means the primary (or the path to
/// it) is gone and the replica should reconnect.
const REPLICA_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// First reconnect delay after a replication failure; doubles per retry.
const RECONNECT_START: Duration = Duration::from_millis(100);

/// Reconnect delay cap.
const RECONNECT_CAP: Duration = Duration::from_secs(2);

/// The live mutation feed: the engine publishes every WAL-appended
/// record here (under the writer mutex, so feed order is log order) and
/// each replication streamer holds a subscription.
#[derive(Debug, Default)]
pub(crate) struct ReplicationHub {
    subs: Mutex<Vec<SyncSender<WalRecord>>>,
    /// Subscriptions not yet dropped.
    live: AtomicUsize,
}

impl ReplicationHub {
    /// Adds a subscriber; it counts as one until the returned
    /// subscription is dropped.
    pub(crate) fn subscribe(&self) -> Subscription<'_> {
        let (tx, rx) = sync_channel(SUB_QUEUE);
        self.subs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(tx);
        self.live.fetch_add(1, Ordering::SeqCst);
        Subscription { rx, hub: self }
    }

    /// Fans one record out to every subscriber. A subscriber whose queue
    /// is full (or whose streamer is gone) is dropped: replication must
    /// never block or slow the write path.
    pub(crate) fn publish(&self, rec: &WalRecord) {
        let mut subs = self.subs.lock().unwrap_or_else(PoisonError::into_inner);
        subs.retain(|tx| tx.try_send(rec.clone()).is_ok());
    }

    /// How many streamers are currently subscribed: a finished stream
    /// stops counting when it ends, not at the next publish.
    pub(crate) fn subscribers(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }
}

/// One streamer's end of the live feed, counted by
/// [`ReplicationHub::subscribers`] until dropped.
pub(crate) struct Subscription<'a> {
    rx: Receiver<WalRecord>,
    hub: &'a ReplicationHub,
}

impl Subscription<'_> {
    fn recv_timeout(&self, timeout: Duration) -> Result<WalRecord, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }
}

impl Drop for Subscription<'_> {
    fn drop(&mut self) {
        self.hub.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What a replica knows about its primary. Owned by the replica's
/// engine ([`Engine::replica_status`]): [`run_replica`] updates it, and
/// the engine's `replication` request reports it. Starts disconnected,
/// with the primary's epochs unknown.
#[derive(Debug, Default)]
pub struct ReplicaStatus {
    connected: AtomicBool,
    primary_tcs: AtomicU64,
    primary_data: AtomicU64,
}

impl ReplicaStatus {
    /// Whether the apply loop currently holds a replication stream.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }

    /// The primary's last advertised `(tcs_epoch, data_epoch)`.
    pub fn primary_epochs(&self) -> (u64, u64) {
        (
            self.primary_tcs.load(Ordering::SeqCst),
            self.primary_data.load(Ordering::SeqCst),
        )
    }

    fn observe(&self, tcs_epoch: u64, data_epoch: u64) {
        self.primary_tcs.store(tcs_epoch, Ordering::SeqCst);
        self.primary_data.store(data_epoch, Ordering::SeqCst);
        self.connected.store(true, Ordering::SeqCst);
    }

    fn disconnected(&self) {
        self.connected.store(false, Ordering::SeqCst);
    }
}

fn io_other(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Writes one WAL-format frame to the stream.
fn write_frame(w: &mut impl Write, rec: &WalRecord) -> std::io::Result<()> {
    let payload = rec.encode_payload();
    let len = u32::try_from(payload.len()).map_err(io_other)?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&crc32(&payload).to_le_bytes())?;
    w.write_all(&payload)
}

/// Reads and validates one WAL-format frame from the stream.
fn read_frame(r: &mut impl Read) -> std::io::Result<WalRecord> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len == 0 || len > MAX_FRAME_PAYLOAD {
        return Err(io_other(format!("replication frame of {len} bytes")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(io_other("replication frame CRC mismatch"));
    }
    WalRecord::decode_payload(&payload).map_err(io_other)
}

/// Serves one replication stream on the primary: handshake reply
/// (stream, snapshot bootstrap, or error), catch-up from the WAL, then
/// the live feed with heartbeats, until the replica disconnects, falls
/// too far behind, or the server stops. Runs on a dedicated thread — a
/// replication stream is connection-lifetime work and must not occupy a
/// request worker.
pub(crate) fn serve_replica(
    mut stream: TcpStream,
    engine: &Arc<Engine>,
    stop: &AtomicBool,
    from: (u64, u64),
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(STREAM_WRITE_TIMEOUT))?;
    if !engine.is_durable() {
        stream.write_all(b"err proto replication requires a durable primary (--data-dir)\n")?;
        return Ok(());
    }
    // Subscribe before scanning the log so no record can fall between
    // catch-up and the live feed; the epoch-sum filter drops the overlap.
    let live = engine.replication_hub().subscribe();
    let from_sum = from.0 + from.1;
    let (cur_te, cur_de) = engine.epochs();
    if from_sum > cur_te + cur_de {
        stream.write_all(b"err proto replica position is ahead of the primary\n")?;
        return Ok(());
    }
    let mut backlog = engine.wal_records_since(from_sum).map_err(io_other)?;
    // The log is a contiguous tail; a first record past `from_sum + 1`
    // means checkpointing pruned the replica's position away.
    let gap = from_sum < cur_te + cur_de
        && backlog
            .first()
            .is_none_or(|r| r.epoch_sum() != from_sum + 1);
    let mut last_sum = from_sum;
    if gap {
        let Some((te, de, bytes)) = engine.newest_checkpoint_raw().map_err(io_other)? else {
            stream.write_all(b"err storage primary pruned the log and holds no checkpoint\n")?;
            return Ok(());
        };
        if te + de <= from_sum {
            stream.write_all(b"err storage primary log has a gap it cannot bridge\n")?;
            return Ok(());
        }
        backlog = engine.wal_records_since(te + de).map_err(io_other)?;
        last_sum = te + de;
        stream.write_all(
            format!(
                "ok replicate snapshot tcs={te} data={de} len={}\n",
                bytes.len()
            )
            .as_bytes(),
        )?;
        stream.write_all(&bytes)?;
        engine.metrics().record_repl_snapshot();
    } else {
        stream.write_all(format!("ok replicate stream tcs={cur_te} data={cur_de}\n").as_bytes())?;
    }
    let mut ship = |stream: &mut TcpStream, rec: &WalRecord| -> std::io::Result<()> {
        if let WalRecord::Op { .. } = rec {
            if rec.epoch_sum() <= last_sum {
                return Ok(()); // catch-up / live-feed overlap
            }
            last_sum = rec.epoch_sum();
        }
        write_frame(stream, rec)?;
        engine.metrics().record_repl_shipped(1);
        Ok(())
    };
    for rec in std::mem::take(&mut backlog) {
        ship(&mut stream, &rec)?;
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match live.recv_timeout(HEARTBEAT) {
            Ok(rec) => ship(&mut stream, &rec)?,
            Err(RecvTimeoutError::Timeout) => {
                let (te, de) = engine.epochs();
                write_frame(
                    &mut stream,
                    &WalRecord::Mark {
                        tcs_epoch: te,
                        data_epoch: de,
                    },
                )?;
                stream.flush()?;
            }
            // The hub dropped this subscription (queue overflow) or the
            // engine is gone; the replica reconnects and catches up.
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// The replica's position on disk before its engine opens: the epochs
/// recovery would reach from `dir`, or `(0, 0)` for a fresh directory.
fn local_position(dir: &Path) -> Result<(u64, u64), String> {
    if !dir.exists() {
        return Ok((0, 0));
    }
    let recovery = Store::peek(dir).map_err(|e| e.to_string())?;
    Ok(recovery.final_epochs())
}

/// Opens a replication connection: connects to `primary`, sends our
/// position `replicate <te> <de>`, and reads the primary's one-line
/// answer (trimmed). Reads time out after [`REPLICA_READ_TIMEOUT`] of
/// silence.
fn handshake(
    primary: &str,
    (te, de): (u64, u64),
) -> Result<(BufReader<TcpStream>, String), String> {
    let stream = TcpStream::connect(primary)
        .map_err(|e| format!("cannot reach primary `{primary}`: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLICA_READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    reader
        .get_mut()
        .write_all(format!("replicate {te} {de}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let line = line.trim().to_string();
    Ok((reader, line))
}

/// Pre-flight bootstrap for a replica, run **before** its engine opens:
/// asks the primary whether the replica's on-disk position can still be
/// served from the retained log and, if not, downloads and installs the
/// primary's newest checkpoint image (fully validated before it is
/// renamed into place). Either way the connection is then closed; the
/// caller opens the engine with [`Engine::open_replica`] — whose crash
/// recovery seeds from the installed image — and starts [`run_replica`].
///
/// Returns the `(tcs_epoch, data_epoch)` of the installed image, or
/// `None` when the log covers the local position and no image was
/// needed.
pub fn initial_sync(primary: &str, dir: &Path) -> Result<Option<(u64, u64)>, String> {
    let (mut reader, line) = handshake(primary, local_position(dir)?)?;
    if line.starts_with("ok replicate stream") {
        return Ok(None);
    }
    let Some(rest) = line.strip_prefix("ok replicate snapshot ") else {
        return Err(format!("primary refused replication: {line}"));
    };
    let len = rest
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("len="))
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| format!("malformed snapshot header: {line}"))?;
    let mut bytes = vec![0u8; len];
    reader
        .read_exact(&mut bytes)
        .map_err(|e| format!("snapshot transfer failed: {e}"))?;
    let epochs = install_checkpoint(dir, &bytes).map_err(|e| e.to_string())?;
    Ok(Some(epochs))
}

/// One replication session: connect, hand the primary our position,
/// apply every shipped op through [`Engine::apply_logged`], until an
/// error or `stop`. Counts the frames it handled into `processed` as it
/// goes, so the caller can reset its backoff after a productive session
/// even when the session ends in an error.
fn replicate_once(
    engine: &Engine,
    primary: &str,
    status: &ReplicaStatus,
    stop: &AtomicBool,
    processed: &mut u64,
) -> Result<(), String> {
    let (mut reader, line) = handshake(primary, engine.epochs())?;
    if line.starts_with("ok replicate snapshot") {
        // The primary pruned our position away while we were running.
        // A live engine cannot swallow a checkpoint image; the replica
        // must be restarted so `initial_sync` can install it first.
        return Err(
            "replica fell behind the primary's retained log; restart it to bootstrap \
             from a checkpoint"
                .to_string(),
        );
    }
    if !line.starts_with("ok replicate stream") {
        return Err(format!("primary refused replication: {line}"));
    }
    if let Some((pte, pde)) = parse_epoch_header(&line) {
        status.observe(pte, pde);
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let rec = read_frame(&mut reader).map_err(|e| e.to_string())?;
        *processed += 1;
        match rec {
            WalRecord::Mark {
                tcs_epoch,
                data_epoch,
            } => status.observe(tcs_epoch, data_epoch),
            WalRecord::Op {
                tcs_epoch,
                data_epoch,
                ..
            } => {
                let sum = tcs_epoch + data_epoch;
                let (ete, ede) = engine.epochs();
                if sum <= ete + ede {
                    // Catch-up overlap with what we already hold.
                    status.observe(tcs_epoch, data_epoch);
                    continue;
                }
                if sum != ete + ede + 1 {
                    return Err(format!(
                        "gap in the replication stream: at ({ete}, {ede}), \
                         next op is ({tcs_epoch}, {data_epoch})"
                    ));
                }
                engine.apply_logged(&rec).map_err(|e| {
                    format!(
                        "replicated op diverged at logged epochs ({tcs_epoch}, {data_epoch}): {e}"
                    )
                })?;
                engine.metrics().record_repl_applied();
                status.observe(tcs_epoch, data_epoch);
            }
        }
    }
}

/// The replica's apply loop: replication sessions with exponential
/// reconnect backoff, until `stop`. Meant for a dedicated thread next to
/// the server of a replica engine; it keeps that engine's
/// [`ReplicaStatus`] current.
///
/// # Panics
///
/// If `engine` was not opened with [`Engine::open_replica`].
pub fn run_replica(engine: &Engine, primary: &str, stop: &AtomicBool) {
    let status = engine
        .replica_status()
        .expect("run_replica needs an engine opened with Engine::open_replica");
    let mut backoff = RECONNECT_START;
    while !stop.load(Ordering::SeqCst) {
        let mut processed = 0u64;
        let outcome = replicate_once(engine, primary, status, stop, &mut processed);
        status.disconnected();
        if outcome.is_ok() || stop.load(Ordering::SeqCst) {
            // Only a stop request ends a session cleanly.
            return;
        }
        if processed > 0 {
            backoff = RECONNECT_START;
        }
        // Sleep in short slices so a stop request is honored promptly.
        let mut left = backoff;
        while !left.is_zero() && !stop.load(Ordering::SeqCst) {
            let step = left.min(Duration::from_millis(25));
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
        backoff = (backoff * 2).min(RECONNECT_CAP);
    }
}

/// Parses `tcs=<t> data=<d>` fields out of a handshake header line.
fn parse_epoch_header(line: &str) -> Option<(u64, u64)> {
    let mut te = None;
    let mut de = None;
    for kv in line.split_whitespace() {
        if let Some(v) = kv.strip_prefix("tcs=") {
            te = v.parse().ok();
        } else if let Some(v) = kv.strip_prefix("data=") {
            de = v.parse().ok();
        }
    }
    Some((te?, de?))
}
