//! The load generator: one thread per connection, sending request lines
//! and reading replies over loopback TCP.
//!
//! Two pacings: a *closed* loop keeps a fixed window of requests in
//! flight (pipelined — the event-loop front end replies strictly in
//! request order), and an *open* loop sends each request at its
//! scheduled instant whether or not earlier replies have arrived, and
//! times it from that instant, so a stall also charges the requests
//! queued behind it.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::gen::{Request, Verb};
use crate::shadow::Outcome;

/// A reply that takes longer than this fails the request and ends the
/// phase for its connection.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Each measured phase is cut into windows of this many seconds; a
/// reported figure is the median over its phase's windows, so a stall of
/// the shared host decides at most a few windows, not the run.
pub const WINDOW_SECS: f64 = 0.5;
/// Replies folded into one [`Chunk`] of a [`Replies`] record.
const CHUNK: u32 = 64;

/// One client connection with its unparsed reply bytes.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    line: Vec<u8>,
}

impl Conn {
    /// Connects to the service.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            line: Vec::new(),
        })
    }

    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        self.line.clear();
        self.line.extend_from_slice(req.line.as_bytes());
        self.line.push(b'\n');
        self.stream.write_all(&self.line)
    }

    /// Waits up to `wait` for reply bytes, then hands every complete
    /// reply line to `on_reply`.
    fn receive(&mut self, wait: Duration, on_reply: &mut dyn FnMut(&str)) -> std::io::Result<()> {
        if !wait_readable(&self.stream, wait)? {
            return Ok(());
        }
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(e),
        }
        let mut start = 0;
        while let Some(pos) = self.buf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.buf[start..start + pos]);
            on_reply(&line);
            start += pos + 1;
        }
        self.buf.drain(..start);
        Ok(())
    }

    /// Sends one request and waits for its reply.
    pub fn round_trip(&mut self, req: &Request) -> std::io::Result<String> {
        self.send(req)?;
        let mut reply = None;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while reply.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return Err(ErrorKind::TimedOut.into());
            }
            self.receive(deadline - now, &mut |line| reply = Some(line.to_string()))?;
        }
        Ok(reply.expect("loop exits with a reply"))
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// `prctl` option that sets the calling thread's timer slack.
const PR_SET_TIMERSLACK: i32 = 29;

/// Lets the calling thread's timed waits end on time. Linux delays a
/// normal thread's timer wake-ups by up to its *timer slack*, 50 µs by
/// default, to batch them; the open loop would then send that much after
/// each due instant, and the latency it reports would carry the delay.
fn precise_timers() {
    // SAFETY: `PR_SET_TIMERSLACK` takes one unsigned long and changes
    // only the calling thread's timer slack; the variadic call passes
    // exactly that argument.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// Waits until `stream` has bytes to read or `wait` passes. A socket
/// read timeout would do, but Linux rounds it up to a scheduler tick
/// (milliseconds), which would make the open loop send late; `ppoll`
/// sleeps on a high-resolution timer.
fn wait_readable(stream: &TcpStream, wait: Duration) -> std::io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: 1, // POLLIN
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: i64::try_from(wait.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` is one valid `struct pollfd` for the duration of the
    // call, `timeout` a valid `struct timespec` (both `#[repr(C)]` with
    // the kernel's 64-bit layout), and a null signal mask is allowed.
    let rc = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match rc {
        -1 => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        n => Ok(n > 0),
    }
}

/// One open-loop request's record: when it was due, sent and answered
/// (in ticks of 100 ns after the phase origin) and what the reply said.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The request's verb.
    pub verb: Verb,
    due: u32,
    sent: u32,
    done: u32,
    /// The reply.
    pub outcome: Outcome,
}

fn ticks(d: Duration) -> u32 {
    u32::try_from(d.as_nanos() / 100).unwrap_or(u32::MAX)
}

impl Sample {
    /// A record from offsets after the phase origin.
    pub fn new(
        verb: Verb,
        due: Duration,
        sent: Duration,
        done: Duration,
        outcome: Outcome,
    ) -> Sample {
        Sample {
            verb,
            due: ticks(due),
            sent: ticks(sent),
            done: ticks(done),
            outcome,
        }
    }

    /// When the request was due, s.
    pub fn due_secs(&self) -> f64 {
        f64::from(self.due) / 1e7
    }

    /// Latency from the due instant to the reply, µs.
    pub fn latency_us(&self) -> f64 {
        f64::from(self.done - self.due) / 10.0
    }

    /// How late the generator sent the request, µs.
    pub fn lag_us(&self) -> f64 {
        f64::from(self.sent - self.due) / 10.0
    }
}

/// Consecutive replies of one lane, folded into a digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chunk {
    /// A hash over the replies' verbs and outcomes, in order.
    pub digest: u64,
    /// The number of replies.
    pub len: u32,
    /// Replies that are errors or carry an invalid certificate.
    pub unsound: u32,
}

/// Every reply of one lane in request order, folded into one [`Chunk`]
/// per 64 replies. The record grows by a few bytes per thousand
/// requests, so the generator's memory does not grow with the service's
/// throughput (the process's peak memory is a metric). The checker folds
/// the shadow session's predictions the same way and compares the
/// records chunk by chunk.
#[derive(Debug, Clone, Default)]
pub struct Replies {
    chunks: Vec<Chunk>,
}

impl Replies {
    /// Adds the next reply.
    pub fn push(&mut self, verb: Verb, outcome: Outcome) {
        if !matches!(self.chunks.last(), Some(c) if c.len < CHUNK) {
            self.chunks.push(Chunk::default());
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        let mut h = DefaultHasher::new();
        (chunk.digest, verb, outcome).hash(&mut h);
        chunk.digest = h.finish();
        chunk.len += 1;
        chunk.unsound += u32::from(!outcome.is_sound());
    }

    /// The number of replies added.
    pub fn count(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.len)).sum()
    }

    /// Replies that are errors or carry an invalid certificate.
    pub fn unsound(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.unsound)).sum()
    }

    /// The chunks, in order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }
}

/// What one connection did in one phase, beside its replies.
#[derive(Debug, Default)]
pub struct LaneLog {
    /// Open-loop replies with their times. The open loop sends at a fixed
    /// rate, so their number does not grow with the service's speed.
    pub samples: Vec<Sample>,
    /// Closed-loop replies per [`WINDOW_SECS`] window after the phase
    /// origin.
    pub completed: Vec<u32>,
    /// Requests sent that never got a reply.
    pub unanswered: usize,
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Keep `window` requests in flight until `until`, then drain.
    Closed {
        /// Requests in flight.
        window: usize,
        /// When to stop sending.
        until: Instant,
    },
    /// Send request `i` at `start + i * interval`, `count` requests.
    Open {
        /// When request 0 is due.
        start: Instant,
        /// Gap between due instants.
        interval: Duration,
        /// Requests to send.
        count: usize,
    },
}

/// Drives one connection through one phase. `next` yields the requests
/// (`None` ends the phase early), every reply is added to `replies`, and
/// times are offsets from `origin`.
pub fn drive(
    conn: &mut Conn,
    next: &mut dyn FnMut() -> Option<Request>,
    pacing: Pacing,
    origin: Instant,
    replies: &mut Replies,
) -> LaneLog {
    precise_timers();
    let mut log = LaneLog::default();
    let mut inflight: VecDeque<(Verb, Duration, Duration)> = VecDeque::new();
    let mut sent = 0usize;
    let mut exhausted = false;
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        match pacing {
            Pacing::Closed { window, until } => {
                while !exhausted && inflight.len() < window && now < until {
                    let Some(req) = next() else {
                        exhausted = true;
                        break;
                    };
                    let t = origin.elapsed();
                    if conn.send(&req).is_err() {
                        log.unanswered += inflight.len() + 1;
                        return log;
                    }
                    inflight.push_back((req.verb, t, t));
                }
                if now >= until {
                    exhausted = true;
                }
            }
            Pacing::Open {
                start,
                interval,
                count,
            } => {
                while !exhausted && sent < count && start + interval * sent as u32 <= now {
                    let Some(req) = next() else {
                        exhausted = true;
                        break;
                    };
                    let due = start + interval * sent as u32 - origin;
                    let t = origin.elapsed();
                    if conn.send(&req).is_err() {
                        log.unanswered += inflight.len() + 1;
                        return log;
                    }
                    inflight.push_back((req.verb, due, t));
                    sent += 1;
                }
                if sent == count {
                    exhausted = true;
                }
            }
        }
        if exhausted && inflight.is_empty() {
            return log;
        }
        let wait = match pacing {
            Pacing::Open {
                start, interval, ..
            } if !exhausted => (start + interval * sent as u32).saturating_duration_since(now),
            Pacing::Closed { until, .. } if !exhausted && inflight.is_empty() => {
                until.saturating_duration_since(now)
            }
            _ => REPLY_TIMEOUT,
        }
        .min(Duration::from_millis(50));
        let waiting = inflight.len();
        let received = conn.receive(wait, &mut |line| {
            let done = origin.elapsed();
            let Some((verb, due, sent)) = inflight.pop_front() else {
                return;
            };
            let outcome = Outcome::of_reply(verb, line);
            replies.push(verb, outcome);
            match pacing {
                Pacing::Closed { .. } => {
                    let w = (done.as_secs_f64() / WINDOW_SECS) as usize;
                    if log.completed.len() <= w {
                        log.completed.resize(w + 1, 0);
                    }
                    log.completed[w] += 1;
                }
                Pacing::Open { .. } => {
                    log.samples
                        .push(Sample::new(verb, due, sent, done, outcome));
                }
            }
        });
        if received.is_err() {
            log.unanswered += inflight.len();
            return log;
        }
        if inflight.is_empty() || inflight.len() < waiting {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > REPLY_TIMEOUT {
            log.unanswered += inflight.len();
            return log;
        }
    }
}
