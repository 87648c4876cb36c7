//! The event-loop (reactor) front end.
//!
//! One thread owns every connection: it multiplexes readiness through a
//! level-triggered [`Poller`], parses complete requests out of
//! per-connection read buffers, and dispatches them to a fixed
//! [`ThreadPool`] of request workers. Workers hand finished replies back
//! over a channel and wake the reactor; the reactor stitches replies
//! into each connection's write buffer **strictly in request order**, so
//! clients may pipeline many requests and still match replies
//! positionally.
//!
//! A connection costs two buffers, not a pool worker: thousands of idle
//! or slow connections coexist with a handful of threads, and a
//! non-reading peer accumulates at most [`WBUF_GATE`] + one reply of
//! bytes before its connection stops parsing (and, past
//! [`WRITE_STALL_LIMIT`] without draining a byte, is dropped).
//!
//! Backpressure is three gates, all per connection and all re-opened by
//! the event that clears them: at [`MAX_INFLIGHT`] dispatched requests,
//! parsing pauses; at [`WBUF_GATE`] unflushed reply bytes, parsing
//! pauses; at [`RBUF_GATE`] unparsed input bytes, socket reads pause
//! (TCP backpressure then reaches the client). Accept failures
//! (descriptor exhaustion) park the listener on an
//! [`AcceptBackoff`] ladder instead of spinning.
//!
//! Framing: connections start in line framing; `frames binary` switches
//! the connection to `[len: u32 LE][payload]` frames after the ack (the
//! ack itself travels in the old framing). A zero-length or oversized
//! frame is a protocol error: the server replies `err proto …` and
//! closes. `replicate <tcs> <data>` detaches the socket from the
//! reactor entirely and hands it to a dedicated WAL-streamer thread
//! (`replication::serve_replica`) — streaming is sequential blocking
//! I/O, which a readiness loop would only complicate.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use magik_runtime::poller::{Interest, Poller};
use magik_runtime::ThreadPool;

use crate::engine::Engine;
use crate::net::{
    intercept, replication_status, AcceptBackoff, Action, Framing, ServerConfig, MAX_LINE_BYTES,
};
use crate::replication;

/// The registration token reserved for the listener.
const LISTENER_TOKEN: usize = 0;
/// Reactor tick: upper bound on one `Poller::wait`, so stop flags,
/// accept-backoff expiry and write-stall sweeps are noticed promptly.
const TICK: Duration = Duration::from_millis(500);
/// Requests dispatched but not yet flushed, per connection, before
/// parsing pauses.
const MAX_INFLIGHT: u64 = 128;
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

/// A completed reply routed back to the reactor: connection token,
/// per-connection sequence number, and the reply itself.
type DoneMsg = (usize, u64, Done);

/// A request waiting in [`Conn::exec_queue`] for its execution turn.
enum Exec {
    /// Run through `Engine::handle` on a pool worker.
    Engine(String),
    /// Render this node's replication status. Cheap (a snapshot clone
    /// plus atomic loads), so it runs on the reactor thread — but only
    /// at its turn, after every request ahead of it has executed.
    Status,
}

/// A finished reply travelling back from a worker (or produced inline).
struct Done {
    reply: String,
    /// Switch the connection's reply framing after this reply.
    switch_to: Option<Framing>,
    /// Close the connection once this reply is flushed.
    close: bool,
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
    /// A complete request (already trimmed; never empty).
    Cmd(String),
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
    /// Next request sequence number to assign.
    next_seq: u64,
    /// Sequence number the next flushed reply must carry.
    next_flush: u64,
    /// Out-of-order finished replies waiting for their turn.
    done: BTreeMap<u64, Done>,
    /// Parsed engine requests waiting to execute. One request per
    /// connection runs at a time ([`Conn::executing`]), so a pipelined
    /// `compl` + `check` pair behaves exactly as it would back-to-back —
    /// pipelining reorders nothing, it only removes round trips.
    exec_queue: VecDeque<(u64, Exec)>,
    /// The sequence number currently running on a worker, if any.
    executing: Option<u64>,
    /// Peer half-closed its write side (EOF seen).
    read_closed: bool,
    /// A closing reply has been queued; stop parsing new requests.
    closing: bool,
    /// The closing reply has been rendered; close once `wbuf` drains.
    close_after_flush: bool,
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
            next_seq: 0,
            next_flush: 0,
            done: BTreeMap::new(),
            exec_queue: VecDeque::new(),
            executing: None,
            read_closed: false,
            closing: false,
            close_after_flush: false,
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

    fn inflight(&self) -> u64 {
        self.next_seq - self.next_flush
    }
}

/// Everything a pump pass needs besides the connection itself.
struct Ctx<'a> {
    engine: &'a Arc<Engine>,
    cfg: &'a ServerConfig,
    pool: &'a ThreadPool,
    poller: &'a Arc<Poller>,
    done_tx: &'a Sender<(usize, u64, Done)>,
}

/// Runs the reactor until `stop` is raised. Entry point for the
/// `magik-reactor` thread; all errors end the loop silently (the server
/// is stopping or the listener is gone).
pub(crate) fn run(
    listener: TcpListener,
    poller: Arc<Poller>,
    engine: Arc<Engine>,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
) {
    let _ = serve(&listener, &poller, &engine, &cfg, &stop);
}

fn serve(
    listener: &TcpListener,
    poller: &Arc<Poller>,
    engine: &Arc<Engine>,
    cfg: &ServerConfig,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    poller.register(listener, LISTENER_TOKEN, Interest::READ)?;
    let pool = ThreadPool::new(cfg.workers.max(1));
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
            poller.register(listener, LISTENER_TOKEN, Interest::READ)?;
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
                listener,
                poller,
                engine,
                &mut conns,
                &mut next_token,
                &mut backoff,
            );
        }

        // Finished replies from the workers.
        while let Ok((token, seq, done)) = done_rx.try_recv() {
            if let Some(conn) = conns.get_mut(&token) {
                conn.done.insert(seq, done);
            }
        }

        // Drive every connection; readiness, completions and gate
        // re-openings all funnel through the same pump.
        let ctx = Ctx {
            engine,
            cfg,
            pool: &pool,
            poller,
            done_tx: &done_tx,
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
                    detach_replica(conn.stream, engine, stop, from);
                }
            }
        }
    }

    // Shutdown: joining the pool finishes every dispatched request, then
    // finished replies are flushed best-effort before sockets close.
    drop(pool);
    while let Ok((token, seq, done)) = done_rx.try_recv() {
        if let Some(conn) = conns.get_mut(&token) {
            conn.done.insert(seq, done);
        }
    }
    for conn in conns.values_mut() {
        flush_ready(conn);
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
                engine.metrics().record_accept_error();
                let delay = backoff.on_error();
                let _ = poller.deregister(listener);
                return Some(Instant::now() + delay);
            }
        }
    }
}

/// One full service pass over a connection: read, parse/dispatch, order
/// replies, flush, re-arm interest.
fn pump(conn: &mut Conn, token: usize, ctx: &Ctx<'_>) -> Fate {
    if conn.want_read {
        conn.want_read = false;
        if !conn.read_closed && !conn.closing && conn.replicate_from.is_none() {
            if let Err(()) = read_some(conn) {
                return Fate::Close;
            }
        }
    }

    parse_and_dispatch(conn, ctx);
    advance_exec(conn, token, ctx);

    flush_ready(conn);
    if try_flush(conn).is_err() {
        return Fate::Close;
    }

    if let Some(from) = conn.replicate_from {
        // Only taken with nothing pending in either direction (the
        // parser refuses a pipelined `replicate`).
        return Fate::Replicate(from);
    }
    if conn.close_after_flush && conn.pending_write() == 0 {
        return Fate::Close;
    }
    if conn.read_closed
        && conn.inflight() == 0
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
        read: !conn.read_closed
            && !conn.closing
            && conn.replicate_from.is_none()
            && conn.unparsed() < RBUF_GATE
            && conn.inflight() < MAX_INFLIGHT
            && conn.pending_write() < WBUF_GATE,
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
    match conn.parse_framing {
        Framing::Line => {
            let haystack = &conn.rbuf[conn.rpos..];
            match haystack.iter().position(|&b| b == b'\n') {
                Some(pos) if pos > MAX_LINE_BYTES => Parsed::Violation("err line too long"),
                Some(pos) => {
                    let cmd = String::from_utf8_lossy(&haystack[..pos]).trim().to_string();
                    conn.rpos += pos + 1;
                    if cmd.is_empty() {
                        Parsed::Blank
                    } else {
                        Parsed::Cmd(cmd)
                    }
                }
                None if haystack.len() > MAX_LINE_BYTES => Parsed::Violation("err line too long"),
                None if conn.read_closed && !haystack.is_empty() => {
                    // Unterminated final line before EOF counts as a
                    // line.
                    let cmd = String::from_utf8_lossy(haystack).trim().to_string();
                    conn.rpos = conn.rbuf.len();
                    if cmd.is_empty() {
                        Parsed::Blank
                    } else {
                        Parsed::Cmd(cmd)
                    }
                }
                None => Parsed::Incomplete,
            }
        }
        Framing::Binary => {
            let haystack = &conn.rbuf[conn.rpos..];
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
            let cmd = String::from_utf8_lossy(&haystack[4..4 + len])
                .trim()
                .to_string();
            conn.rpos += 4 + len;
            if cmd.is_empty() {
                Parsed::Blank
            } else {
                Parsed::Cmd(cmd)
            }
        }
    }
}

/// Parses as many complete requests as the gates allow, completing
/// connection-level commands inline and queueing the rest for
/// sequential execution ([`advance_exec`]).
fn parse_and_dispatch(conn: &mut Conn, ctx: &Ctx<'_>) {
    while !conn.closing
        && conn.replicate_from.is_none()
        && conn.inflight() < MAX_INFLIGHT
        && conn.pending_write() < WBUF_GATE
    {
        let cmd = match next_request(conn) {
            Parsed::Cmd(cmd) => cmd,
            Parsed::Blank => continue,
            Parsed::Incomplete => break,
            Parsed::Violation(reply) => {
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.done.insert(
                    seq,
                    Done {
                        reply: reply.to_string(),
                        switch_to: None,
                        close: true,
                    },
                );
                conn.closing = true;
                break;
            }
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        match intercept(&cmd, ctx.cfg, conn.parse_framing) {
            Action::Reply(reply) => {
                conn.done.insert(
                    seq,
                    Done {
                        reply,
                        switch_to: None,
                        close: false,
                    },
                );
            }
            Action::Close(reply) => {
                conn.done.insert(
                    seq,
                    Done {
                        reply,
                        switch_to: None,
                        close: true,
                    },
                );
                conn.closing = true;
            }
            Action::Switch(framing, ack) => {
                // Incoming bytes switch right here; outgoing replies
                // switch when the ack is rendered (ordered with every
                // earlier reply).
                conn.parse_framing = framing;
                conn.done.insert(
                    seq,
                    Done {
                        reply: ack,
                        switch_to: Some(framing),
                        close: false,
                    },
                );
            }
            Action::Replicate(from) => {
                if seq != conn.next_flush || conn.pending_write() > 0 || conn.unparsed() > 0 {
                    conn.done.insert(
                        seq,
                        Done {
                            reply: "err proto replicate cannot be pipelined".to_string(),
                            switch_to: None,
                            close: true,
                        },
                    );
                    conn.closing = true;
                } else {
                    // No reply flows through the reactor: the streamer
                    // writes the handshake itself. Un-issue the seq so
                    // ordering stays consistent.
                    conn.next_seq = seq;
                    conn.replicate_from = Some(from);
                }
            }
            Action::Status => {
                conn.exec_queue.push_back((seq, Exec::Status));
            }
            Action::Dispatch => {
                conn.exec_queue.push_back((seq, Exec::Engine(cmd)));
            }
        }
    }
    // Reclaim consumed input.
    if conn.rpos > 0 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
}

/// Keeps exactly one engine request per connection on the workers:
/// dispatches the queue head once the previous request's reply has come
/// back. Sequential execution per connection is what makes pipelining
/// safe for dependent requests (a `compl` followed by a `check` that
/// relies on it); concurrency comes from having many connections.
fn advance_exec(conn: &mut Conn, token: usize, ctx: &Ctx<'_>) {
    if let Some(seq) = conn.executing {
        if conn.done.contains_key(&seq) || conn.next_flush > seq {
            conn.executing = None;
        }
    }
    while conn.executing.is_none() {
        let Some((seq, exec)) = conn.exec_queue.pop_front() else {
            break;
        };
        match exec {
            Exec::Status => {
                conn.done.insert(
                    seq,
                    Done {
                        reply: replication_status(ctx.engine, ctx.cfg),
                        switch_to: None,
                        close: false,
                    },
                );
            }
            Exec::Engine(cmd) => {
                conn.executing = Some(seq);
                let engine = Arc::clone(ctx.engine);
                let tx = ctx.done_tx.clone();
                let poller = Arc::clone(ctx.poller);
                ctx.pool.execute(move || {
                    let reply = engine.handle(&cmd);
                    let _ = tx.send((
                        token,
                        seq,
                        Done {
                            reply,
                            switch_to: None,
                            close: false,
                        },
                    ));
                    let _ = poller.wake();
                });
            }
        }
    }
}

/// Moves every reply whose turn has come from the reorder map into the
/// write buffer, applying framing switches and close requests as they
/// pass.
fn flush_ready(conn: &mut Conn) {
    let was_empty = conn.pending_write() == 0;
    let mut rendered = false;
    while let Some(done) = conn.done.remove(&conn.next_flush) {
        conn.next_flush += 1;
        rendered = true;
        match conn.reply_framing {
            Framing::Line => {
                conn.wbuf.extend_from_slice(done.reply.as_bytes());
                conn.wbuf.push(b'\n');
            }
            Framing::Binary => {
                let bytes = done.reply.as_bytes();
                conn.wbuf
                    .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                conn.wbuf.extend_from_slice(bytes);
            }
        }
        if let Some(framing) = done.switch_to {
            conn.reply_framing = framing;
        }
        if done.close {
            conn.close_after_flush = true;
        }
    }
    if was_empty && rendered {
        // The stall clock starts when the connection begins owing bytes.
        conn.last_write_progress = Instant::now();
    }
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
