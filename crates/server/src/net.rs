//! The TCP front end: an event-loop reactor.
//!
//! [`Server::start`] runs the reactor in [`crate::event_loop`]: one
//! thread multiplexes every connection over a non-blocking
//! [`Poller`] and dispatches parsed requests to a fixed
//! [`ThreadPool`](magik_runtime::ThreadPool), so thousands of idle or
//! slow connections cost buffers, not threads. Outside Linux the poller
//! falls back to a timed tick, so this one front end serves on every
//! Unix.
//!
//! The protocol (grammar in `PROTOCOL.md`) is requests in, replies out,
//! in order, with request *pipelining* (many requests in flight per
//! connection, replies strictly in request order) and a length-prefixed
//! *binary framing* negotiated in-band with `frames binary`. The reactor
//! tokenizes each request once ([`crate::request`]) and keeps only
//! framing and the connection-level commands — `quit`, `frames` and the
//! `replicate` handoff; every other request, `replication` and a
//! replica's refused writes included, is the engine's.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use magik_runtime::poller::Poller;

use crate::engine::Engine;

/// The most bytes one request may hold — the line before its newline, or
/// a binary frame payload. A client streaming bytes with no terminator
/// would otherwise grow the buffer without bound; at the cap the server
/// replies `err line too long` (or `err proto frame exceeds the size
/// cap`) and drops the connection (see `PROTOCOL.md`).
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// How request and reply bytes are framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framing {
    /// `\n`-terminated UTF-8 lines (the default).
    Line,
    /// `[len: u32 LE][payload]` frames, one request or reply per frame.
    Binary,
}

impl Framing {
    /// The name used in `frames` negotiation replies.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Framing::Line => "line",
            Framing::Binary => "binary",
        }
    }
}

/// Exponential backoff policy for failed `accept` calls.
///
/// `accept` fails persistently under descriptor exhaustion (`EMFILE` /
/// `ENFILE`): the pending connection stays queued, so retrying
/// immediately fails again and the old `continue`-on-error loop spins a
/// core at 100% while serving nothing. The policy is pure (no clock, no
/// sleeping) so it can be unit-tested exactly: delays double from
/// [`AcceptBackoff::START`] to [`AcceptBackoff::CAP`], and one
/// successful accept resets the ladder.
#[derive(Debug)]
pub(crate) struct AcceptBackoff {
    next: Duration,
}

impl AcceptBackoff {
    /// Delay after the first error in a streak.
    pub(crate) const START: Duration = Duration::from_millis(10);
    /// Largest delay the ladder reaches.
    pub(crate) const CAP: Duration = Duration::from_secs(1);

    /// A fresh ladder, starting at [`AcceptBackoff::START`].
    pub(crate) fn new() -> AcceptBackoff {
        AcceptBackoff { next: Self::START }
    }

    /// Reports one failed accept; returns how long to back off before
    /// retrying.
    pub(crate) fn on_error(&mut self) -> Duration {
        let delay = self.next;
        self.next = (self.next * 2).min(Self::CAP);
        delay
    }

    /// Reports one successful accept; resets the ladder.
    pub(crate) fn on_success(&mut self) {
        self.next = Self::START;
    }
}

/// A running server front end sharing one [`Engine`].
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Kept so shutdown can flush the engine's durability layer after
    /// the last in-flight request has finished.
    engine: Arc<Engine>,
    /// The reactor's poller; `stop` wakes the loop through it.
    poller: Arc<Poller>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7171`, or port `0` for an ephemeral
    /// port) and starts the event-loop front end with `workers` request
    /// workers (min 1): connections are multiplexed on one reactor
    /// thread, requests may be pipelined, and binary framing can be
    /// negotiated. A replica engine ([`Engine::open_replica`]) serves
    /// read-only through the same call.
    pub fn start(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let poller = Arc::new(Poller::new()?);
        let loop_stop = Arc::clone(&stop);
        let loop_engine = Arc::clone(&engine);
        let loop_poller = Arc::clone(&poller);
        let accept_thread = std::thread::Builder::new()
            .name("magik-reactor".to_string())
            .spawn(move || {
                let _ =
                    crate::event_loop::run(listener, loop_poller, loop_engine, workers, loop_stop);
            })?;
        Ok(Server {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            engine,
            poller,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the server: no new connections are accepted, idle
    /// connections are closed, and each connection's executing request
    /// finishes before the workers exit. The requests behind it, in its
    /// run and after, are not run and get no reply, so a stop waits for
    /// at most one request per connection.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return; // already stopped
        }
        // The reactor blocks in `Poller::wait`; the waker interrupts it
        // from here.
        let _ = self.poller.wake();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Every in-flight request has finished (the reactor thread joins
        // its worker pool), so the engine state is final: flush the WAL
        // and write the shutdown checkpoint. A clean stop therefore
        // leaves zero records for the next open to replay. Failures are
        // swallowed — shutdown runs in Drop — but the WAL already holds
        // every acknowledged mutation, so nothing is lost either way.
        let _ = self.engine.shutdown_durability();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_to_the_cap() {
        let mut b = AcceptBackoff::new();
        let mut expected = AcceptBackoff::START;
        for _ in 0..12 {
            let delay = b.on_error();
            assert_eq!(delay, expected);
            expected = (expected * 2).min(AcceptBackoff::CAP);
        }
        // Long past doubling range: pinned at the cap.
        assert_eq!(b.on_error(), AcceptBackoff::CAP);
        assert_eq!(b.on_error(), AcceptBackoff::CAP);
    }

    #[test]
    fn accept_backoff_resets_after_a_success() {
        let mut b = AcceptBackoff::new();
        for _ in 0..20 {
            b.on_error();
        }
        assert_eq!(b.on_error(), AcceptBackoff::CAP);
        b.on_success();
        assert_eq!(b.on_error(), AcceptBackoff::START);
        assert_eq!(b.on_error(), AcceptBackoff::START * 2);
    }
}
