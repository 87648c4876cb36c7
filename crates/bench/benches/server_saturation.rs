//! Connection saturation (experiment A15, extends A8): how many
//! concurrent connections the event-loop front end sustains at bounded
//! latency.
//!
//! A8 measures peak throughput with one saturating connection per
//! worker. This experiment holds the worker pool fixed (4) and grows the
//! *connection* count instead — the axis the event-loop front end was
//! built for. Every client performs cached-verdict checks at a fixed
//! per-client rate (one request per [`THINK`]), so the aggregate offered
//! load stays well below the pool's capacity in every configuration and
//! latency measures the front end, not saturation queueing. Each client
//! records per-request latency plus the time from connect to its first
//! reply (admission latency).
//!
//! The event loop multiplexes every connection over the same pool, so
//! admission stays flat and p99 only reflects honest queueing (requests
//! in flight / pool capacity). `EXPERIMENTS.md` (experiment A15) keeps
//! the last comparison against the retired thread-per-connection front
//! end, which could admit only `workers` connections at once.
//!
//! Run with `cargo bench -p magik-bench --bench server_saturation`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use magik::{Engine, Server};

/// Worker threads on every server configuration — the resource held
/// fixed while the connection count grows.
const WORKERS: usize = 4;

/// Round trips per connection.
const REQS_PER_CONN: usize = 50;

/// Per-client think time between round trips. At the largest fleet the
/// aggregate offered load is 128 clients / 10 ms = 12.8 Kreq/s, well
/// below the ~34 Kreq/s cached-check capacity A8 measured for this pool
/// — so a front end that scales with connections keeps latency flat
/// here, and what grows is contention, not saturation.
const THINK: Duration = Duration::from_millis(10);

/// Concurrent-connection fleet sizes. The largest is 32× the worker
/// count.
const FLEETS: [usize; 4] = [4, 16, 64, 128];

const TCS: [&str; 2] = [
    "compl school(S, primary, D) ; true.",
    "compl pupil(N, C, S) ; school(S, T, merano).",
];

const HOT_CHECK: &str = "check q(N) :- pupil(N, C, S), school(S, primary, merano).";

/// One client's measurements: admission latency (connect to first
/// reply) and every request's round-trip latency.
struct Sample {
    first_reply: Duration,
    latencies: Vec<Duration>,
}

/// An engine with the TCS installed and the hot check already cached,
/// so every measured request is a verdict-cache read.
fn warmed_engine() -> Arc<Engine> {
    let engine = Arc::new(Engine::new());
    for line in TCS {
        assert!(engine.handle(line).starts_with("ok"), "TCS install failed");
    }
    assert!(engine.handle(HOT_CHECK).starts_with("ok"), "warm-up failed");
    engine
}

/// Runs `n` concurrent paced clients against `addr`, each making `reqs`
/// round trips, and collects their samples. All clients connect first,
/// then start their request loops together.
fn drive(addr: std::net::SocketAddr, n: usize, reqs: usize) -> Vec<Sample> {
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            // Spread request phases uniformly across one think interval,
            // so the fleet offers a steady rate instead of lockstep
            // bursts every `THINK` (which would measure burst drain, not
            // the front end).
            let phase = THINK.mul_f64(i as f64 / n as f64);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("read timeout");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut reply = String::new();
                barrier.wait();
                std::thread::sleep(phase);
                let connected = Instant::now();
                let mut first_reply = Duration::ZERO;
                let mut latencies = Vec::with_capacity(reqs);
                for i in 0..reqs {
                    if i > 0 {
                        std::thread::sleep(THINK);
                    }
                    let sent = Instant::now();
                    writer
                        .write_all(format!("{HOT_CHECK}\n").as_bytes())
                        .expect("send");
                    reply.clear();
                    reader.read_line(&mut reply).expect("receive");
                    assert!(reply.starts_with("ok "), "request failed: {reply}");
                    latencies.push(sent.elapsed());
                    if i == 0 {
                        first_reply = connected.elapsed();
                    }
                }
                Sample {
                    first_reply,
                    latencies,
                }
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect()
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn report(conns: usize, samples: &[Sample]) {
    let mut all: Vec<Duration> = samples.iter().flat_map(|s| s.latencies.clone()).collect();
    all.sort_unstable();
    let admit_worst = samples
        .iter()
        .map(|s| s.first_reply)
        .max()
        .expect("nonempty fleet");
    println!(
        "event_loop conns={conns:<4} p50={:>8.1}us p99={:>9.1}us max={:>9.1}us admit_worst={:>10.1}us",
        micros(quantile(&all, 0.50)),
        micros(quantile(&all, 0.99)),
        micros(*all.last().expect("nonempty")),
        micros(admit_worst),
    );
}

fn main() {
    // `cargo bench` passes harness flags; the only one honored is
    // `--test` (CI smoke: tiny fleets, few requests), as in the
    // criterion-based benchmarks.
    let quick = std::env::args().any(|a| a == "--test");
    let fleets: &[usize] = if quick { &[4, 16] } else { &FLEETS };
    let reqs = if quick { 10 } else { REQS_PER_CONN };
    let engine = warmed_engine();
    println!(
        "A15 server saturation: {WORKERS} workers, {reqs} cached checks per \
         connection, {THINK:?} think time"
    );
    for &conns in fleets {
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", WORKERS).expect("bind");
        let samples = drive(server.local_addr(), conns, reqs);
        report(conns, &samples);
        server.stop();
    }
}
