//! The event-loop (reactor) front end.
//!
//! One thread owns every connection: it multiplexes readiness through a
//! level-triggered [`Poller`], tokenizes each complete request in the
//! per-connection read buffers once ([`Request`]), answers `quit`,
//! `frames` and `replicate` itself, and dispatches the rest to a fixed
//! [`ThreadPool`] of request workers. Workers hand finished replies back
//! over a channel and wake the reactor.
//!
//! Each connection keeps one queue of reply slots in request order. A
//! slot holds a finished reply (inline, a protocol violation, or a
//! worker's), or a tokenized engine request that is waiting or running;
//! nothing is parsed after a closing reply. Finished slots flush from the
//! front, so replies leave **strictly in request order** and clients may
//! pipeline many requests and still match replies positionally. Only the
//! front of the queue can start, because everything ahead of it has
//! flushed: the *run* of waiting engine requests there, up to the first
//! slot that is not one, goes to one worker as one job, which executes
//! them in order and hands back all their replies in one message with
//! one wake-up. A connection thus executes one engine request at a time,
//! in arrival order, on at most one worker, so a pipelined `compl` +
//! `check` pair behaves exactly as it would back-to-back; a reply can
//! wait for the requests behind it in its run, and workers interleave
//! connections run by run. While a run executes, its connection's
//! socket is not read: what arrives meanwhile is read when the run's
//! replies come back and joins the next run, so a pipelining connection
//! wakes the reactor once per run, not once per request. A handler that
//! panics is answered `err internal …` in its own slot and counted in
//! `pool.panics`; the rest of its run proceeds and its connection keeps
//! serving. A server stop lets each executing request finish and runs
//! none that has not started.
//!
//! A connection costs two buffers, not a pool worker: thousands of idle
//! or slow connections coexist with a handful of threads, and a
//! non-reading peer accumulates at most [`WBUF_GATE`] + one reply of
//! bytes before its connection stops parsing (and, past
//! [`WRITE_STALL_LIMIT`] without draining a byte, is dropped).
//!
//! Backpressure is three gates, all per connection and all re-opened by
//! the event that clears them: at [`MAX_INFLIGHT`] reply slots, parsing
//! pauses; at [`WBUF_GATE`] unflushed reply bytes, parsing pauses; at
//! [`RBUF_GATE`] unparsed input bytes, socket reads pause (TCP
//! backpressure then reaches the client). Accept failures (descriptor
//! exhaustion) park the listener on an [`AcceptBackoff`] ladder instead
//! of spinning.
//!
//! Framing: connections start in line framing; `frames binary` switches
//! the connection to `[len: u32 LE][payload]` frames after the ack (the
//! ack itself travels in the old framing). A zero-length or oversized
//! frame is a protocol error: the server replies `err proto …` and
//! closes. `replicate <tcs> <data>` detaches the socket from the
//! reactor entirely and hands it to a dedicated WAL-streamer thread
//! (`replication::serve_replica`) — streaming is sequential blocking
//! I/O, which a readiness loop would only complicate.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use magik_runtime::poller::{Interest, Poller};
use magik_runtime::ThreadPool;

use crate::engine::Engine;
use crate::metrics::{Counter, Metrics};
use crate::net::{AcceptBackoff, Framing, MAX_LINE_BYTES};
use crate::replication;
use crate::request::Request;

/// The registration token reserved for the listener.
const LISTENER_TOKEN: usize = 0;
/// Reactor tick: upper bound on one `Poller::wait`, so stop flags,
/// accept-backoff expiry and write-stall sweeps are noticed promptly.
const TICK: Duration = Duration::from_millis(500);
/// Reply slots (requests parsed but not yet flushed) per connection
/// before parsing pauses.
const MAX_INFLIGHT: usize = 128;
/// Unflushed reply bytes per connection before parsing pauses.
const WBUF_GATE: usize = 1 << 20;
/// Unparsed input bytes per connection before socket reads pause. Must
/// exceed [`MAX_LINE_BYTES`] + 4 so a maximal binary frame can always
/// finish arriving.
const RBUF_GATE: usize = 2 << 20;
/// A connection owing reply bytes that drains none of them for this
/// long is dropped as a non-reader.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(30);
/// Read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// A worker's replies to one run, routed back to the reactor: connection
/// token and one reply per request it ran, in request order. They fill
/// that connection's running slots.
type DoneMsg = (usize, Vec<String>);

/// One request's place in its connection's reply order.
enum Slot {
    /// The final reply, and the framing the connection's replies switch
    /// to after it (`frames` acks only).
    Ready(String, Option<Framing>),
    /// An engine request waiting for the slots ahead of it to flush.
    Waiting(Request),
    /// An engine request of the run executing on a worker.
    Running,
}

/// What one pump pass decided about a connection.
enum Fate {
    Keep,
    Close,
    /// Detach the socket and hand it to a WAL streamer from this
    /// `(tcs_epoch, data_epoch)` position.
    Replicate((u64, u64)),
}

/// One parsed request, or a reason to stop parsing.
enum Parsed {
    /// A complete request, tokenized (never a blank line).
    Cmd(Request),
    /// Whitespace only — consumed, nothing to do.
    Blank,
    /// Need more input bytes.
    Incomplete,
    /// The peer violated the protocol: reply and close.
    Violation(&'static str),
}

struct Conn {
    stream: TcpStream,
    /// Raw input; `rpos` marks how far parsing has consumed it.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Rendered replies; `wpos` marks how far the socket has taken them.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Framing applied to *incoming* bytes (switches at the `frames`
    /// command itself).
    parse_framing: Framing,
    /// Framing applied to *outgoing* replies (switches after the ack is
    /// rendered, so the ack travels in the old framing).
    reply_framing: Framing,
    /// Reply slots in request order; the front flushes first.
    slots: VecDeque<Slot>,
    /// Peer half-closed its write side (EOF seen).
    read_closed: bool,
    /// A closing reply has been queued as the last slot: stop parsing,
    /// and close once it is flushed and `wbuf` drains.
    closing: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Set by a readiness event; cleared after the read attempt.
    want_read: bool,
    /// Last instant a pending reply byte reached the socket.
    last_write_progress: Instant,
    /// Set when `replicate` detaches this connection.
    replicate_from: Option<(u64, u64)>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            parse_framing: Framing::Line,
            reply_framing: Framing::Line,
            slots: VecDeque::new(),
            read_closed: false,
            closing: false,
            interest: Interest::READ,
            want_read: false,
            last_write_progress: Instant::now(),
            replicate_from: None,
        }
    }

    fn unparsed(&self) -> usize {
        self.rbuf.len() - self.rpos
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// Everything a pump pass needs besides the connection itself.
struct Ctx<'a> {
    engine: &'a Arc<Engine>,
    pool: &'a ThreadPool,
    poller: &'a Arc<Poller>,
    done_tx: &'a Sender<DoneMsg>,
    stop: &'a Arc<AtomicBool>,
}

/// Runs the reactor until `stop` is raised. Entry point for the
/// `magik-reactor` thread; an error ends the loop (the server is
/// stopping or the listener is gone).
pub(crate) fn run(
    listener: TcpListener,
    poller: Arc<Poller>,
    engine: Arc<Engine>,
    workers: usize,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    poller.register(&listener, LISTENER_TOKEN, Interest::READ)?;
    let pool = ThreadPool::new(workers.max(1));
    let (done_tx, done_rx): (Sender<DoneMsg>, Receiver<DoneMsg>) = channel();
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = LISTENER_TOKEN + 1;
    let mut backoff = AcceptBackoff::new();
    let mut accept_paused_until: Option<Instant> = None;
    let mut events = Vec::new();

    while !stop.load(Ordering::SeqCst) {
        let timeout = accept_paused_until.map_or(TICK, |t| {
            t.saturating_duration_since(Instant::now()).min(TICK)
        });
        poller.wait(&mut events, Some(timeout))?;
        if stop.load(Ordering::SeqCst) {
            break;
        }

        // Resume accepting once the backoff window has passed.
        if accept_paused_until.is_some_and(|t| Instant::now() >= t) {
            accept_paused_until = None;
            poller.register(&listener, LISTENER_TOKEN, Interest::READ)?;
        }

        let mut accept_ready = false;
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_ready = true;
            } else if let Some(conn) = conns.get_mut(&ev.token) {
                if ev.readable {
                    conn.want_read = true;
                }
                // Writable readiness needs no flag: every pump pass
                // attempts a flush when reply bytes are pending.
            }
        }

        if accept_ready && accept_paused_until.is_none() {
            accept_paused_until = accept_all(
                &listener,
                &poller,
                &engine,
                &mut conns,
                &mut next_token,
                &mut backoff,
            );
        }

        // Finished replies from the workers.
        fill_running(&mut conns, &done_rx);

        // Drive every connection; readiness, completions and gate
        // re-openings all funnel through the same pump.
        let ctx = Ctx {
            engine: &engine,
            pool: &pool,
            poller: &poller,
            done_tx: &done_tx,
            stop: &stop,
        };
        let tokens: Vec<usize> = conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            match pump(conn, token, &ctx) {
                Fate::Keep => {}
                Fate::Close => {
                    let conn = conns.remove(&token).expect("pumped conn");
                    let _ = poller.deregister(&conn.stream);
                }
                Fate::Replicate(from) => {
                    let conn = conns.remove(&token).expect("pumped conn");
                    let _ = poller.deregister(&conn.stream);
                    detach_replica(conn.stream, &engine, &stop, from);
                }
            }
        }
    }

    // Shutdown: joining the pool finishes every executing request (a run
    // stops at the flag, so no request that had not started runs), then
    // finished replies are flushed best-effort before sockets close.
    drop(pool);
    fill_running(&mut conns, &done_rx);
    for conn in conns.values_mut() {
        let _ = try_flush(conn);
    }
    Ok(())
}

/// Accepts until `WouldBlock`. On a persistent accept failure
/// (descriptor exhaustion), records the error, parks the listener and
/// returns the instant accepting should resume.
fn accept_all(
    listener: &TcpListener,
    poller: &Arc<Poller>,
    engine: &Arc<Engine>,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
    backoff: &mut AcceptBackoff,
) -> Option<Instant> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff.on_success();
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let token = *next_token;
                // Skip the listener token and the poller's reserved
                // waker token on wraparound.
                *next_token = next_token.wrapping_add(1).max(LISTENER_TOKEN + 1);
                if *next_token == usize::MAX {
                    *next_token = LISTENER_TOKEN + 1;
                }
                if poller.register(&stream, token, Interest::READ).is_ok() {
                    conns.insert(token, Conn::new(stream));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                // EMFILE/ENFILE and friends fail again immediately; park
                // the listener (deregister, so level-triggered readiness
                // stops firing) and resume after the backoff delay.
                engine.metrics().add(Counter::AcceptErrors, 1);
                let delay = backoff.on_error();
                let _ = poller.deregister(listener);
                return Some(Instant::now() + delay);
            }
        }
    }
}

/// Moves each run's replies into its connection's running slots, which
/// are always the front ones, in order, and flushes the finished front:
/// the slots a run frees let the next pump pass parse the requests that
/// a full queue left unparsed. A run cut short by a stop leaves its
/// unrun slots running.
fn fill_running(conns: &mut HashMap<usize, Conn>, done_rx: &Receiver<DoneMsg>) {
    while let Ok((token, replies)) = done_rx.try_recv() {
        let Some(conn) = conns.get_mut(&token) else {
            continue;
        };
        for (slot, reply) in conn.slots.iter_mut().zip(replies) {
            if let Slot::Running = slot {
                *slot = Slot::Ready(reply, None);
            }
        }
        flush_ready(conn);
        // Its socket was not read while the run executed.
        conn.want_read = true;
    }
}

/// One full service pass over a connection: read, parse, flush finished
/// replies, start the next engine request, write, re-arm interest.
fn pump(conn: &mut Conn, token: usize, ctx: &Ctx<'_>) -> Fate {
    if conn.want_read {
        conn.want_read = false;
        if may_read(conn) {
            if let Err(()) = read_some(conn) {
                return Fate::Close;
            }
        }
    }

    parse(conn);
    flush_ready(conn);
    start_front(conn, token, ctx);
    if try_flush(conn).is_err() {
        return Fate::Close;
    }

    if let Some(from) = conn.replicate_from {
        // Only taken with nothing pending in either direction (the
        // parser refuses a pipelined `replicate`).
        return Fate::Replicate(from);
    }
    if conn.closing && conn.slots.is_empty() && conn.pending_write() == 0 {
        return Fate::Close;
    }
    if conn.read_closed
        && conn.slots.is_empty()
        && conn.pending_write() == 0
        && (conn.unparsed() == 0 || conn.parse_framing == Framing::Binary)
    {
        // EOF and nothing left to produce. A torn binary frame tail is
        // unfinishable and dropped; a line tail was already parsed as a
        // final unterminated line.
        return Fate::Close;
    }
    if conn.pending_write() > 0 && conn.last_write_progress.elapsed() > WRITE_STALL_LIMIT {
        // Non-reader: owes reply bytes and has drained none for the
        // whole stall window.
        return Fate::Close;
    }

    let want = Interest {
        read: may_read(conn) && !matches!(conn.slots.front(), Some(Slot::Running)),
        write: conn.pending_write() > 0,
    };
    if want != conn.interest {
        if ctx.poller.reregister(&conn.stream, token, want).is_err() {
            return Fate::Close;
        }
        conn.interest = want;
    }
    Fate::Keep
}

/// Whether the backpressure gates let the connection's socket be read.
fn may_read(conn: &Conn) -> bool {
    !conn.read_closed
        && !conn.closing
        && conn.replicate_from.is_none()
        && conn.unparsed() < RBUF_GATE
        && conn.slots.len() < MAX_INFLIGHT
        && conn.pending_write() < WBUF_GATE
}

/// Drains the socket into `rbuf` until `WouldBlock`, EOF, or the read
/// gate. `Err(())` means the connection is dead.
fn read_some(conn: &mut Conn) -> Result<(), ()> {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        if conn.unparsed() >= RBUF_GATE {
            return Ok(());
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                return Ok(());
            }
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
}

/// Extracts the next complete request from the read buffer.
fn next_request(conn: &mut Conn) -> Parsed {
    let haystack = &conn.rbuf[conn.rpos..];
    let (body, consumed) = match conn.parse_framing {
        Framing::Line => match haystack.iter().position(|&b| b == b'\n') {
            Some(pos) if pos > MAX_LINE_BYTES => return Parsed::Violation("err line too long"),
            Some(pos) => (&haystack[..pos], pos + 1),
            None if haystack.len() > MAX_LINE_BYTES => {
                return Parsed::Violation("err line too long")
            }
            // Unterminated final line before EOF counts as a line.
            None if conn.read_closed && !haystack.is_empty() => (haystack, haystack.len()),
            None => return Parsed::Incomplete,
        },
        Framing::Binary => {
            if haystack.len() < 4 {
                return Parsed::Incomplete;
            }
            let len =
                u32::from_le_bytes([haystack[0], haystack[1], haystack[2], haystack[3]]) as usize;
            if len == 0 {
                return Parsed::Violation("err proto empty frame");
            }
            if len > MAX_LINE_BYTES {
                return Parsed::Violation("err proto frame exceeds the size cap");
            }
            if haystack.len() < 4 + len {
                return Parsed::Incomplete;
            }
            (&haystack[4..4 + len], 4 + len)
        }
    };
    let cmd = String::from_utf8_lossy(body);
    let parsed = if cmd.trim().is_empty() {
        Parsed::Blank
    } else {
        Parsed::Cmd(Request::parse(&cmd))
    };
    conn.rpos += consumed;
    parsed
}

/// Parses as many complete requests as the gates allow into reply
/// slots: the connection-level commands (`quit`, `frames`, `replicate`)
/// and violations finish at once, engine requests wait for
/// [`start_front`].
fn parse(conn: &mut Conn) {
    while !conn.closing
        && conn.replicate_from.is_none()
        && conn.slots.len() < MAX_INFLIGHT
        && conn.pending_write() < WBUF_GATE
    {
        let (reply, close) = match next_request(conn) {
            Parsed::Cmd(Request::Quit) => ("ok bye".to_string(), true),
            Parsed::Cmd(Request::Frames(Ok(None))) => {
                (format!("ok frames={}", conn.parse_framing.name()), false)
            }
            Parsed::Cmd(Request::Frames(Ok(Some(framing)))) => {
                // Incoming bytes switch right here; outgoing replies
                // switch when the ack is rendered (ordered with every
                // earlier reply).
                conn.parse_framing = framing;
                let ack = format!("ok frames={}", framing.name());
                conn.slots.push_back(Slot::Ready(ack, Some(framing)));
                continue;
            }
            Parsed::Cmd(Request::Frames(Err(name))) => {
                (format!("err proto unknown framing `{name}`"), false)
            }
            // No reply flows through the reactor: the streamer writes the
            // handshake itself, so nothing may be owed before it.
            Parsed::Cmd(Request::Replicate(Some(from)))
                if conn.slots.is_empty() && conn.pending_write() == 0 && conn.unparsed() == 0 =>
            {
                conn.replicate_from = Some(from);
                continue;
            }
            Parsed::Cmd(Request::Replicate(from)) => match from {
                Some(_) => ("err proto replicate cannot be pipelined".to_string(), true),
                None => (
                    "err proto usage: replicate <tcs-epoch> <data-epoch>".to_string(),
                    false,
                ),
            },
            Parsed::Cmd(request) => {
                conn.slots.push_back(Slot::Waiting(request));
                continue;
            }
            Parsed::Blank => continue,
            Parsed::Incomplete => break,
            Parsed::Violation(reply) => (reply.to_string(), true),
        };
        conn.closing = close;
        conn.slots.push_back(Slot::Ready(reply, None));
    }
    // Reclaim consumed input.
    if conn.rpos > 0 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
}

/// Moves the finished slots at the front into the write buffer, applying
/// framing switches as they pass.
fn flush_ready(conn: &mut Conn) {
    let was_empty = conn.pending_write() == 0;
    let mut rendered = false;
    while let Some(slot) = conn.slots.pop_front() {
        let Slot::Ready(reply, switch) = slot else {
            conn.slots.push_front(slot);
            break;
        };
        rendered = true;
        match conn.reply_framing {
            Framing::Line => {
                conn.wbuf.extend_from_slice(reply.as_bytes());
                conn.wbuf.push(b'\n');
            }
            Framing::Binary => {
                conn.wbuf
                    .extend_from_slice(&(reply.len() as u32).to_le_bytes());
                conn.wbuf.extend_from_slice(reply.as_bytes());
            }
        }
        if let Some(framing) = switch {
            conn.reply_framing = framing;
        }
    }
    if was_empty && rendered {
        // The stall clock starts when the connection begins owing bytes.
        conn.last_write_progress = Instant::now();
    }
}

/// Starts the run of waiting engine requests at the front, up to the
/// first slot that is not one, as one worker job, and counts it in
/// `pool.runs`. Run after [`flush_ready`], so no other request of the
/// connection is running; concurrency comes from many connections.
fn start_front(conn: &mut Conn, token: usize, ctx: &Ctx<'_>) {
    let mut run = Vec::new();
    while let Some(slot) = conn.slots.get_mut(run.len()) {
        match std::mem::replace(slot, Slot::Running) {
            Slot::Waiting(request) => run.push(request),
            other => {
                *slot = other;
                break;
            }
        }
    }
    if run.is_empty() {
        return;
    }
    ctx.engine.metrics().add(Counter::PoolRuns, 1);
    let engine = Arc::clone(ctx.engine);
    let tx = ctx.done_tx.clone();
    let poller = Arc::clone(ctx.poller);
    let stop = Arc::clone(ctx.stop);
    ctx.pool.execute(move || {
        let replies = answer_run(engine.metrics(), &run, &stop, |request| {
            engine.execute(request)
        });
        let _ = tx.send((token, replies));
        let _ = poller.wake();
    });
}

/// Executes a run in order, each request under its own [`answer`], so a
/// panic answers only its own slot and the rest of the run proceeds.
/// Once `stop` is raised the requests not yet started are not run, so a
/// server stop waits for one request per connection, not a whole run;
/// their slots get no reply.
fn answer_run(
    metrics: &Metrics,
    run: &[Request],
    stop: &AtomicBool,
    handle: impl Fn(&Request) -> String,
) -> Vec<String> {
    run.iter()
        .take_while(|_| !stop.load(Ordering::SeqCst))
        .map(|request| answer(metrics, || handle(request)))
        .collect()
}

/// Runs one engine request on a worker. A panicking handler is answered
/// `err internal …` and counted in `pool.panics` (a pooled reasoning
/// task's panic resumes on its handler, so it is counted here, once).
fn answer(metrics: &Metrics, handle: impl FnOnce() -> String) -> String {
    catch_unwind(AssertUnwindSafe(handle)).unwrap_or_else(|_| {
        metrics.add(Counter::PoolPanics, 1);
        "err internal request handler panicked".to_string()
    })
}

/// Pushes pending reply bytes into the socket until `WouldBlock` or
/// empty. `Err(())` means the connection is dead.
fn try_flush(conn: &mut Conn) -> Result<(), ()> {
    while conn.pending_write() > 0 {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                conn.wpos += n;
                conn.last_write_progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    if conn.pending_write() == 0 && !conn.wbuf.is_empty() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(())
}

/// Hands a detached socket to a dedicated WAL-streamer thread. The
/// socket returns to blocking mode (the streamer uses sequential writes
/// under its own timeouts).
fn detach_replica(
    stream: TcpStream,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    from: (u64, u64),
) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let engine = Arc::clone(engine);
    let stop = Arc::clone(stop);
    let _ = std::thread::Builder::new()
        .name("magik-replship".to_string())
        .spawn(move || {
            let _ = replication::serve_replica(stream, &engine, &stop, from);
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CacheCounts, Op};
    use magik_runtime::PoolCounters;

    /// A connection whose read buffer holds `input`, and its peer.
    fn conn_with(input: &[u8]) -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let stream = listener.accept().unwrap().0;
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream);
        conn.rbuf.extend_from_slice(input);
        (conn, client)
    }

    /// Calls `f` with `conn` registered as token 7 in a context with a
    /// one-worker pool over `engine`, and returns the messages of the
    /// runs it started once they have finished.
    fn with_ctx(
        engine: &Arc<Engine>,
        conn: &mut Conn,
        f: impl FnOnce(&mut Conn, &Ctx<'_>),
    ) -> Vec<DoneMsg> {
        let pool = ThreadPool::new(1);
        let poller = Arc::new(Poller::new().unwrap());
        poller.register(&conn.stream, 7, conn.interest).unwrap();
        let (tx, rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let ctx = Ctx {
            engine,
            pool: &pool,
            poller: &poller,
            done_tx: &tx,
            stop: &stop,
        };
        f(conn, &ctx);
        // Dropping the pool joins its worker, so the runs have finished.
        drop(pool);
        rx.try_iter().collect()
    }

    /// Starts `conn`'s front run and returns its messages.
    fn start_run(conn: &mut Conn, engine: &Arc<Engine>) -> Vec<DoneMsg> {
        with_ctx(engine, conn, |conn, ctx| start_front(conn, 7, ctx))
    }

    /// Fills `conn`'s running slots from `msgs`, which flushes the
    /// finished front slots.
    fn fill_and_flush(conn: Conn, msgs: Vec<DoneMsg>) -> Conn {
        let mut conns = HashMap::from([(7, conn)]);
        let (tx, rx) = channel();
        for msg in msgs {
            tx.send(msg).unwrap();
        }
        fill_running(&mut conns, &rx);
        conns.remove(&7).unwrap()
    }

    #[test]
    fn a_panicking_handler_is_answered_and_counted() {
        let metrics = Metrics::new();
        assert_eq!(answer(&metrics, || "ok pong".to_string()), "ok pong");
        let reply = answer(&metrics, || panic!("a handler bug"));
        assert_eq!(reply, "err internal request handler panicked");
        let text = metrics.render(&CacheCounts::default(), &PoolCounters::default());
        assert!(text.ends_with(" pool.panics=1 pool.runs=0"), "{text}");
    }

    #[test]
    fn pipelined_requests_start_as_one_run() {
        let engine = Arc::new(Engine::new());
        let (mut conn, _client) = conn_with(b"ping\nepochs\nping\n");
        parse(&mut conn);
        let msgs = start_run(&mut conn, &engine);
        assert!(conn.slots.iter().all(|slot| matches!(slot, Slot::Running)));
        let [(7, replies)] = &msgs[..] else {
            panic!("one message per run: {msgs:?}");
        };
        assert_eq!(replies, &["ok pong", "ok tcs=0 data=0", "ok pong"]);
        let conn = fill_and_flush(conn, msgs);
        assert_eq!(
            String::from_utf8_lossy(&conn.wbuf),
            "ok pong\nok tcs=0 data=0\nok pong\n"
        );
        assert!(conn.slots.is_empty());
        let metrics = engine.handle("metrics");
        assert!(metrics.ends_with(" pool.runs=1"), "{metrics}");
    }

    #[test]
    fn an_inline_reply_ends_a_run() {
        let engine = Arc::new(Engine::new());
        let (mut conn, _client) = conn_with(b"ping\nepochs\nframes\nping\n");
        parse(&mut conn);
        let msgs = start_run(&mut conn, &engine);
        assert!(matches!(
            conn.slots.make_contiguous(),
            [
                Slot::Running,
                Slot::Running,
                Slot::Ready(..),
                Slot::Waiting(Request::Ping)
            ]
        ));
        let mut conn = fill_and_flush(conn, msgs);
        assert_eq!(
            String::from_utf8_lossy(&conn.wbuf),
            "ok pong\nok tcs=0 data=0\nok frames=line\n"
        );
        let msgs = start_run(&mut conn, &engine);
        let conn = fill_and_flush(conn, msgs);
        assert_eq!(
            String::from_utf8_lossy(&conn.wbuf),
            "ok pong\nok tcs=0 data=0\nok frames=line\nok pong\n"
        );
        assert!(conn.slots.is_empty());
        let metrics = engine.handle("metrics");
        assert!(metrics.ends_with(" pool.runs=2"), "{metrics}");
    }

    #[test]
    fn a_full_run_makes_room_for_the_requests_behind_it() {
        let engine = Arc::new(Engine::new());
        let (mut conn, _client) = conn_with("ping\n".repeat(MAX_INFLIGHT + 2).as_bytes());
        parse(&mut conn);
        assert_eq!(conn.slots.len(), MAX_INFLIGHT);
        let msgs = start_run(&mut conn, &engine);
        let mut conn = fill_and_flush(conn, msgs);
        // The pump pass after the run's replies parses and starts the two
        // requests left unparsed, with no further readiness event.
        let msgs = with_ctx(&engine, &mut conn, |conn, ctx| {
            assert!(matches!(pump(conn, 7, ctx), Fate::Keep));
        });
        assert_eq!(msgs, [(7, vec!["ok pong".to_string(); 2])]);
        assert_eq!(
            conn.pending_write(),
            0,
            "the full run's replies are written"
        );
    }

    #[test]
    fn a_connection_is_read_when_its_run_returns() {
        let engine = Arc::new(Engine::new());
        let (mut conn, mut client) = conn_with(b"ping\n");
        client.write_all(b"epochs\n").unwrap();
        let msgs = with_ctx(&engine, &mut conn, |conn, ctx| {
            assert!(matches!(pump(conn, 7, ctx), Fate::Keep));
            assert!(!conn.interest.read, "not read while its run executes");
        });
        assert_eq!(msgs, [(7, vec!["ok pong".to_string()])]);
        let mut conn = fill_and_flush(conn, msgs);
        // The request that arrived during the run is read, parsed and
        // started by the next pump pass, with no readiness event.
        let msgs = with_ctx(&engine, &mut conn, |conn, ctx| {
            assert!(matches!(pump(conn, 7, ctx), Fate::Keep));
        });
        assert_eq!(msgs, [(7, vec!["ok tcs=0 data=0".to_string()])]);
    }

    #[test]
    fn a_panic_answers_only_its_own_slot_of_a_run() {
        let metrics = Metrics::new();
        let run = [Request::Ping, Request::Epochs, Request::Ping];
        let replies = answer_run(
            &metrics,
            &run,
            &AtomicBool::new(false),
            |request| match request {
                Request::Epochs => panic!("a handler bug"),
                _ => "ok pong".to_string(),
            },
        );
        let text = metrics.render(&CacheCounts::default(), &PoolCounters::default());
        assert!(text.contains(" pool.panics=1 "), "{text}");
        let (mut conn, _client) = conn_with(b"");
        conn.slots.extend(run.iter().map(|_| Slot::Running));
        let conn = fill_and_flush(conn, vec![(7, replies)]);
        assert_eq!(
            String::from_utf8_lossy(&conn.wbuf),
            "ok pong\nerr internal request handler panicked\nok pong\n"
        );
    }

    #[test]
    fn a_stop_ends_a_run_after_its_executing_request() {
        let metrics = Metrics::new();
        let stop = AtomicBool::new(false);
        let run = [Request::Ping, Request::Ping, Request::Ping];
        let replies = answer_run(&metrics, &run, &stop, |_| {
            stop.store(true, Ordering::SeqCst);
            "ok pong".to_string()
        });
        assert_eq!(replies, ["ok pong"]);
        let (mut conn, _client) = conn_with(b"");
        conn.slots.extend(run.iter().map(|_| Slot::Running));
        let conn = fill_and_flush(conn, vec![(7, replies)]);
        assert_eq!(String::from_utf8_lossy(&conn.wbuf), "ok pong\n");
        assert_eq!(conn.slots.len(), 2, "the unrun requests get no reply");
    }

    #[test]
    fn inline_replies_wait_behind_the_running_engine_request() {
        let (mut conn, _client) =
            conn_with(b"check q(X) :- p(X).\nframes\nreplicate x\nquit\nping\n");
        parse(&mut conn);
        // `quit` closes: the `ping` behind it is never parsed.
        assert_eq!(conn.slots.len(), 4);
        assert!(matches!(
            conn.slots.front(),
            Some(Slot::Waiting(Request::Payload(Op::Check, query))) if query == "q(X) :- p(X)."
        ));
        conn.slots[0] = Slot::Running;
        flush_ready(&mut conn);
        assert_eq!(
            conn.pending_write(),
            0,
            "the finished replies wait their turn"
        );

        let conn = fill_and_flush(conn, vec![(7, vec!["ok complete".to_string()])]);
        assert_eq!(
            String::from_utf8_lossy(&conn.wbuf),
            "ok complete\nok frames=line\nerr proto usage: replicate <tcs-epoch> <data-epoch>\nok bye\n"
        );
        assert_eq!(conn.slots.len(), 0);
        assert!(conn.closing);
    }
}
