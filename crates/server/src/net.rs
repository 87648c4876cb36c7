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
//! *binary framing* negotiated in-band with `frames binary`.
//! Connection-level commands — `quit`, `replication`, framing
//! negotiation, read-only enforcement and the `replicate` handoff — are
//! classified by [`intercept`].

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use magik_runtime::poller::Poller;

use crate::engine::Engine;
use crate::replication::ReplicaStatus;

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

/// Configuration for [`Server::start_with`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing engine requests (min 1).
    pub workers: usize,
    /// Refuse mutations (`assert`, `retract`, `compl`) with
    /// `err readonly …`. Replicas serve with this set.
    pub read_only: bool,
    /// When serving as a replica, the shared status handle the
    /// `replication` command reports from.
    pub replica_status: Option<Arc<ReplicaStatus>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            read_only: false,
            replica_status: None,
        }
    }
}

/// What the front end should do with one parsed request.
pub(crate) enum Action {
    /// Reply immediately without touching the engine.
    Reply(String),
    /// Hand the request to `Engine::handle` on a worker.
    Dispatch,
    /// Answer with [`replication_status`] at the request's execution
    /// turn, not at parse time — a pipelined status must reflect every
    /// request ahead of it.
    Status,
    /// Reply, then close the connection.
    Close(String),
    /// Ack in the current framing, then parse and reply with the new one.
    Switch(Framing, String),
    /// Hand the connection to a WAL streamer starting after this
    /// `(tcs_epoch, data_epoch)` position.
    Replicate((u64, u64)),
}

/// Classifies one request line for the front end. Everything that is
/// not a connection-level command (`quit`, `frames`, `replication`,
/// `replicate`, read-only enforcement) is [`Action::Dispatch`]ed to the
/// engine.
pub(crate) fn intercept(cmd: &str, cfg: &ServerConfig, current: Framing) -> Action {
    let (verb, rest) = match cmd.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (cmd, ""),
    };
    match verb {
        "quit" => Action::Close("ok bye".to_string()),
        "frames" => match rest {
            "" => Action::Reply(format!("ok frames={}", current.name())),
            "binary" => Action::Switch(Framing::Binary, "ok frames=binary".to_string()),
            "line" => Action::Switch(Framing::Line, "ok frames=line".to_string()),
            other => Action::Reply(format!("err proto unknown framing `{other}`")),
        },
        "replication" => Action::Status,
        "replicate" => {
            let mut parts = rest.split_whitespace();
            match (
                parts.next().and_then(|s| s.parse::<u64>().ok()),
                parts.next().and_then(|s| s.parse::<u64>().ok()),
                parts.next(),
            ) {
                (Some(te), Some(de), None) => Action::Replicate((te, de)),
                _ => {
                    Action::Reply("err proto usage: replicate <tcs-epoch> <data-epoch>".to_string())
                }
            }
        }
        "assert" | "retract" | "compl" if cfg.read_only => Action::Reply(
            "err readonly this replica serves reads only; send writes to the primary".to_string(),
        ),
        _ => Action::Dispatch,
    }
}

/// Renders the `replication` status line for this node's role.
pub(crate) fn replication_status(engine: &Engine, cfg: &ServerConfig) -> String {
    let (te, de) = engine.epochs();
    match &cfg.replica_status {
        Some(status) => {
            let (pte, pde) = status.primary_epochs();
            let lag = (pte + pde).saturating_sub(te + de);
            format!(
                "ok role=replica connected={} primary_tcs={pte} primary_data={pde} \
                 tcs={te} data={de} lag={lag}",
                status.is_connected()
            )
        }
        None => format!(
            "ok role=primary durable={} tcs={te} data={de} subscribers={}",
            engine.is_durable(),
            engine.replication_hub().subscribers()
        ),
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
    /// workers: connections are multiplexed on one reactor thread,
    /// requests may be pipelined, and binary framing can be negotiated.
    pub fn start(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> std::io::Result<Server> {
        Server::start_with(
            engine,
            addr,
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
    }

    /// [`Server::start`] with full [`ServerConfig`] control (read-only
    /// replicas, replication status reporting).
    pub fn start_with(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
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
                crate::event_loop::run(listener, loop_poller, loop_engine, cfg, loop_stop);
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
    /// connections are closed, and in-flight requests finish before
    /// their workers exit.
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

    #[test]
    fn intercept_classifies_connection_commands() {
        let engine = Engine::new();
        let cfg = ServerConfig::default();
        assert!(matches!(
            intercept("quit", &cfg, Framing::Line),
            Action::Close(r) if r == "ok bye"
        ));
        assert!(matches!(
            intercept("frames binary", &cfg, Framing::Line),
            Action::Switch(Framing::Binary, r) if r == "ok frames=binary"
        ));
        assert!(matches!(
            intercept("frames", &cfg, Framing::Binary),
            Action::Reply(r) if r == "ok frames=binary"
        ));
        assert!(matches!(
            intercept("replicate 3 7", &cfg, Framing::Line),
            Action::Replicate((3, 7))
        ));
        assert!(matches!(
            intercept("replicate x", &cfg, Framing::Line),
            Action::Reply(r) if r.starts_with("err proto usage")
        ));
        assert!(matches!(
            intercept("check q() :- p().", &cfg, Framing::Line),
            Action::Dispatch
        ));
        assert!(matches!(
            intercept("replication", &cfg, Framing::Line),
            Action::Status
        ));
        let status = replication_status(&engine, &cfg);
        assert!(
            status.starts_with("ok role=primary durable=false tcs=0 data=0"),
            "unexpected status: {status}"
        );
    }

    #[test]
    fn intercept_enforces_read_only() {
        let engine = Engine::new();
        let cfg = ServerConfig {
            read_only: true,
            replica_status: Some(Arc::new(ReplicaStatus::new())),
            ..ServerConfig::default()
        };
        for cmd in ["assert p(a).", "retract p(a).", "compl p(X) ; true."] {
            assert!(
                matches!(
                    intercept(cmd, &cfg, Framing::Line),
                    Action::Reply(r) if r.starts_with("err readonly")
                ),
                "{cmd} should be refused"
            );
        }
        // Reads still dispatch.
        assert!(matches!(
            intercept("check q() :- p().", &cfg, Framing::Line),
            Action::Dispatch
        ));
        assert!(matches!(
            intercept("replication", &cfg, Framing::Line),
            Action::Status
        ));
        let status = replication_status(&engine, &cfg);
        assert!(
            status.starts_with("ok role=replica connected=false"),
            "unexpected status: {status}"
        );
    }
}
