//! In-process replication tests: a durable primary served by the event
//! loop, replicas following its WAL over TCP, bootstrap from a
//! checkpoint when the log is pruned, read-only enforcement, and the
//! `replication` status command.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use magik_server::{initial_sync, run_replica, DurabilityOptions, Engine, Server};
use magik_storage::FsyncPolicy;

fn data_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "magik-replication-{name}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn options(checkpoint_every: u64) -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Always,
        segment_bytes: 1 << 12,
        checkpoint_every,
    }
}

fn open(dir: &std::path::Path, checkpoint_every: u64) -> Engine {
    let (engine, _) = Engine::open_durable(
        dir,
        options(checkpoint_every),
        magik_exec::Executor::Sequential,
    )
    .expect("durable open");
    engine
}

fn open_replica(dir: &std::path::Path) -> Engine {
    let (engine, _) = Engine::open_replica(dir, options(0), magik_exec::Executor::Sequential)
        .expect("replica open");
    engine
}

fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let start = Instant::now();
    while !pred() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The smallest sequence number among retained `wal-*.log` segments
/// (0 when none exist; a fresh log's first segment is also seq 0, so a
/// value above 0 means checkpointing pruned the front of the log).
fn earliest_wal_seq(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read data dir")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name();
            let name = name.to_string_lossy().into_owned();
            name.strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse::<u64>()
                .ok()
        })
        .min()
        .unwrap_or(0)
}

fn has_checkpoint(dir: &std::path::Path) -> bool {
    std::fs::read_dir(dir).expect("read data dir").any(|e| {
        e.expect("dir entry")
            .file_name()
            .to_string_lossy()
            .starts_with("ckpt-")
    })
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { writer, reader }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("receive");
        reply.trim_end().to_string()
    }
}

/// A replica running in this process: replica engine, follower thread,
/// and its server.
struct Replica {
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    server: Server,
    follower: Option<std::thread::JoinHandle<()>>,
}

impl Replica {
    fn start(dir: &std::path::Path, primary: &str) -> Replica {
        initial_sync(primary, dir).expect("initial sync");
        let engine = Arc::new(open_replica(dir));
        let stop = Arc::new(AtomicBool::new(false));
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 2).expect("bind replica");
        let follower = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let primary = primary.to_string();
            std::thread::spawn(move || run_replica(&engine, &primary, &stop))
        };
        Replica {
            engine,
            stop,
            server,
            follower: Some(follower),
        }
    }

    fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.follower.take() {
            t.join().expect("follower thread");
        }
        self.server.stop();
    }
}

#[test]
fn replica_follows_a_live_primary_and_serves_identical_verdicts() {
    let primary_dir = data_dir("live-primary");
    let primary_engine = Arc::new(open(&primary_dir, 0));
    let primary = Server::start(Arc::clone(&primary_engine), "127.0.0.1:0", 2).expect("bind");
    let primary_addr = primary.local_addr().to_string();

    // History before the replica exists.
    assert_eq!(
        primary_engine.handle("compl school(S, primary, D) ; true."),
        "ok epoch=1"
    );
    assert_eq!(
        primary_engine.handle("compl pupil(N, C, S) ; school(S, T, merano)."),
        "ok epoch=2"
    );
    for i in 0..10 {
        assert_eq!(
            primary_engine.handle(&format!("assert pupil(p{i}, c1, hofer).")),
            "ok inserted"
        );
    }

    let replica_dir = data_dir("live-replica");
    let replica = Replica::start(&replica_dir, &primary_addr);

    // Catch-up: the replica replays history it never witnessed live.
    wait_until("catch-up", Duration::from_secs(10), || {
        replica.engine.epochs() == primary_engine.epochs()
    });

    // Live streaming: mutations after subscription arrive too.
    for i in 10..20 {
        assert_eq!(
            primary_engine.handle(&format!("assert pupil(p{i}, c1, hofer).")),
            "ok inserted"
        );
    }
    wait_until("live convergence", Duration::from_secs(10), || {
        replica.engine.epochs() == primary_engine.epochs()
    });
    assert!(
        replica
            .engine
            .replica_status()
            .expect("replica")
            .is_connected(),
        "follower should be connected"
    );

    // Byte-identical verdicts and answers on both nodes.
    let mut p = Client::connect(primary.local_addr());
    let mut r = Client::connect(replica.server.local_addr());
    for q in [
        "check q(N) :- pupil(N, C, S), school(S, primary, merano).",
        "check q(N) :- pupil(N, C, S), school(S, primary, bolzano).",
        "eval q(N) :- pupil(N, C, S).",
    ] {
        assert_eq!(p.request(q), r.request(q), "nodes diverge on `{q}`");
    }

    // Read-only enforcement on the replica's wire.
    let refused = r.request("assert pupil(x, c1, hofer).");
    assert!(
        refused.starts_with("err readonly"),
        "replica accepted a write: {refused}"
    );

    // Status lines for both roles.
    let ps = p.request("replication");
    assert!(
        ps.starts_with("ok role=primary durable=true") && ps.contains("subscribers=1"),
        "primary status: {ps}"
    );
    let rs = r.request("replication");
    assert!(
        rs.starts_with("ok role=replica connected=true") && rs.ends_with("lag=0"),
        "replica status: {rs}"
    );

    replica.shutdown();
    primary.stop();
}

#[test]
fn replica_bootstraps_from_a_checkpoint_when_the_log_is_pruned() {
    let primary_dir = data_dir("ckpt-primary");
    // Aggressive checkpointing with tiny segments: after enough
    // mutations the early WAL segments are pruned and a joining replica
    // cannot be served from the log alone.
    let primary_engine = Arc::new(open(&primary_dir, 4));
    let primary = Server::start(Arc::clone(&primary_engine), "127.0.0.1:0", 2).expect("bind");
    let primary_addr = primary.local_addr().to_string();

    assert_eq!(
        primary_engine.handle("compl school(S, T, D) ; true."),
        "ok epoch=1"
    );
    for i in 0..200 {
        assert_eq!(
            primary_engine.handle(&format!("assert school(s{i}, primary, bz).")),
            "ok inserted"
        );
    }
    // Checkpoints run in the background; wait until one landed and the
    // initial segment (`wal-0`) is gone — history before the surviving
    // segments is then unreachable from the log alone.
    wait_until("log pruning", Duration::from_secs(10), || {
        has_checkpoint(&primary_dir) && earliest_wal_seq(&primary_dir) > 0
    });

    let replica_dir = data_dir("ckpt-replica");
    let installed = initial_sync(&primary_addr, &replica_dir).expect("initial sync");
    assert!(
        installed.is_some(),
        "a pruned primary must offer its checkpoint to a fresh replica"
    );

    let replica = Replica::start(&replica_dir, &primary_addr);
    wait_until(
        "post-bootstrap convergence",
        Duration::from_secs(10),
        || replica.engine.epochs() == primary_engine.epochs(),
    );

    let mut p = Client::connect(primary.local_addr());
    let mut r = Client::connect(replica.server.local_addr());
    let q = "eval q(S) :- school(S, primary, bz).";
    assert_eq!(p.request(q), r.request(q));

    replica.shutdown();
    primary.stop();
}

/// The `name=<u64>` field of a `metrics` reply.
fn field(metrics: &str, name: &str) -> u64 {
    metrics
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing in {metrics}"))
}

#[test]
fn replica_engine_refuses_writes_serves_reads_and_reports_its_role() {
    let dir = data_dir("role");
    {
        let engine = open(&dir, 0);
        engine.handle("compl edge(X, Y) ; true.");
        engine.handle("assert edge(a, b).");
        // Unclean drop: the replica below recovers both ops.
    }
    let replica = open_replica(&dir);
    assert_eq!(replica.epochs(), (1, 1));
    for write in [
        "assert edge(b, c).",
        "retract edge(a, b).",
        "compl edge(X, c) ; true.",
    ] {
        assert_eq!(
            replica.handle(write),
            "err readonly this replica serves reads only; send writes to the primary",
            "{write}"
        );
    }
    assert_eq!(replica.epochs(), (1, 1));
    assert_eq!(replica.handle("eval q(X, Y) :- edge(X, Y)."), "ok 1 (a, b)");
    assert_eq!(
        replica.handle("check q(X, Y) :- edge(X, Y)."),
        "ok complete"
    );
    assert_eq!(
        replica.handle("replication"),
        "ok role=replica connected=false primary_tcs=0 primary_data=0 tcs=1 data=1 lag=0"
    );
    // Refused writes are client requests that failed; `replication` is
    // counted with the other requests; replayed ops are neither.
    let metrics = replica.handle("metrics");
    for op in ["assert", "retract", "compl"] {
        assert_eq!(field(&metrics, &format!("{op}.count")), 1, "{metrics}");
        assert_eq!(field(&metrics, &format!("{op}.err")), 1, "{metrics}");
    }
    assert_eq!(field(&metrics, "other.count"), 1, "{metrics}");
    assert_eq!(field(&metrics, "recovery.replayed_ops"), 2, "{metrics}");
}

#[test]
fn ops_applied_from_the_primary_count_as_repl_applied_only() {
    let primary_dir = data_dir("applied-primary");
    let primary_engine = Arc::new(open(&primary_dir, 0));
    let primary = Server::start(Arc::clone(&primary_engine), "127.0.0.1:0", 2).expect("bind");
    primary_engine.handle("compl edge(X, Y) ; true.");
    primary_engine.handle("assert edge(a, b).");
    primary_engine.handle("assert edge(b, c).");
    let replica_dir = data_dir("applied-replica");
    let replica = Replica::start(&replica_dir, &primary.local_addr().to_string());
    // `repl.applied` ticks after an op's snapshot is published, so wait
    // on the counter rather than on the epochs.
    wait_until("catch-up", Duration::from_secs(10), || {
        field(&replica.engine.handle("metrics"), "repl.applied") == 3
    });
    assert_eq!(replica.engine.epochs(), primary_engine.epochs());
    let metrics = replica.engine.handle("metrics");
    for op in ["compl", "assert"] {
        assert!(!metrics.contains(&format!("{op}.count")), "{metrics}");
    }
    replica.shutdown();
    primary.stop();
}

#[test]
fn replication_from_a_memory_only_primary_is_refused() {
    let server = Server::start(Arc::new(Engine::new()), "127.0.0.1:0", 2).expect("bind");
    let mut c = Client::connect(server.local_addr());
    let reply = c.request("replicate 0 0");
    assert!(
        reply.starts_with("err proto replication requires a durable primary"),
        "got: {reply}"
    );
    server.stop();
}

#[test]
fn pipelined_replicate_is_refused() {
    let server = Server::start(Arc::new(Engine::new()), "127.0.0.1:0", 2).expect("bind");
    let mut c = Client::connect(server.local_addr());
    // `replicate` hands the raw socket to a streamer; anything pipelined
    // behind it would be silently swallowed, so the server refuses.
    c.writer
        .write_all(b"ping\nreplicate 0 0\nping\n")
        .expect("pipeline");
    let mut first = String::new();
    c.reader.read_line(&mut first).expect("first");
    assert_eq!(first.trim_end(), "ok pong");
    let mut second = String::new();
    c.reader.read_line(&mut second).expect("second");
    assert_eq!(second.trim_end(), "err proto replicate cannot be pipelined");
    server.stop();
}
