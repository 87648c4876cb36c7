//! End-to-end test: a real server on an ephemeral port, driven by several
//! concurrent client connections, checked against the single-shot
//! reasoning path (`magik_completeness::is_complete` on freshly parsed
//! input).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use magik_completeness::{is_complete, TcSet};
use magik_parser::{parse_query, parse_tcs};
use magik_relalg::Vocabulary;
use magik_server::{Engine, Server};

/// A line-oriented protocol client.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
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

const TCS: [&str; 2] = [
    "school(S, primary, D) ; true.",
    "pupil(N, C, S) ; school(S, T, merano).",
];

const COMPLETE_Q: &str = "q(N) :- pupil(N, C, S), school(S, primary, merano).";
const INCOMPLETE_Q: &str = "q(N) :- pupil(N, C, S), school(S, primary, bolzano).";

/// The single-shot path: parse everything fresh and run `is_complete`
/// directly, with no engine, cache, or server involved.
fn single_shot_verdict(query: &str) -> bool {
    let mut vocab = Vocabulary::new();
    let tcs = TcSet::new(
        TCS.iter()
            .map(|s| parse_tcs(s, &mut vocab).expect("tcs parses"))
            .collect(),
    );
    let q = parse_query(query, &mut vocab).expect("query parses");
    is_complete(&q, &tcs)
}

#[test]
fn concurrent_clients_agree_with_single_shot_reasoning() {
    let server = Server::start(Arc::new(Engine::new()), "127.0.0.1:0", 4).expect("bind");
    let addr = server.local_addr();

    // Session setup on its own connection.
    let mut setup = Client::connect(addr);
    assert_eq!(setup.request("ping"), "ok pong");
    for (i, tcs) in TCS.iter().enumerate() {
        assert_eq!(
            setup.request(&format!("compl {tcs}")),
            format!("ok epoch={}", i + 1)
        );
    }
    // Warm the verdict cache, so the clients below never race for a
    // cold entry: a check probes, computes unlocked, then inserts, and
    // concurrent first checks would each miss.
    assert_eq!(setup.request(&format!("check {COMPLETE_Q}")), "ok complete");
    assert_eq!(
        setup.request(&format!("check {INCOMPLETE_Q}")),
        "ok incomplete"
    );

    // Three concurrent clients, each mixing mutations and queries. The
    // completeness verdict depends only on the TCS set (never on stored
    // facts), so it must be stable no matter how the clients' assertions
    // interleave.
    let expect_complete = single_shot_verdict(COMPLETE_Q);
    let expect_incomplete = single_shot_verdict(INCOMPLETE_Q);
    assert!(
        expect_complete && !expect_incomplete,
        "paper example sanity"
    );
    let clients: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for round in 0..10 {
                    let fact = format!("assert pupil(p{i}_{round}, c1, hofer).");
                    assert_eq!(c.request(&fact), "ok inserted");
                    assert_eq!(c.request(&format!("check {COMPLETE_Q}")), "ok complete");
                    assert_eq!(c.request(&format!("check {INCOMPLETE_Q}")), "ok incomplete");
                }
                let g = c.request(&format!("generalize {INCOMPLETE_Q}"));
                assert!(g.starts_with("ok "), "generalize reply: {g}");
                let m = c.request("metrics");
                assert!(m.starts_with("ok "), "metrics reply: {m}");
                assert!(m.contains("check.count="), "metrics reply: {m}");
                assert_eq!(c.request("quit"), "ok bye");
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // All 30 assertions from the three clients landed.
    let mut verify = Client::connect(addr);
    let reply = verify.request("eval q(N) :- pupil(N, C, S).");
    assert!(reply.starts_with("ok 30 "), "eval reply: {reply}");

    // The verdict cache served every client check of the complete query:
    // its warm-up check missed, and the clients' 30 hit. The incomplete
    // query names `bolzano`, which the session never wrote, so each
    // request parses it as a name local to that request, and such a
    // query bypasses the cache.
    let metrics = verify.request("metrics");
    assert!(
        metrics.contains("verdict_cache.hits=30 verdict_cache.misses=1 "),
        "{metrics}"
    );

    server.stop();
}

#[test]
fn malformed_lines_do_not_kill_the_connection() {
    let server = Server::start(Arc::new(Engine::new()), "127.0.0.1:0", 2).expect("bind");
    let mut c = Client::connect(server.local_addr());
    assert!(c.request("nonsense").starts_with("err proto "));
    assert!(c.request("check not a query").starts_with("err parse "));
    assert_eq!(c.request("ping"), "ok pong");
    server.stop();
}

#[test]
fn stop_unblocks_idle_connections() {
    let server = Server::start(Arc::new(Engine::new()), "127.0.0.1:0", 1).expect("bind");
    // An idle connection pins the only worker; stop() must still return
    // (handlers poll the stop flag between reads).
    let _idle = TcpStream::connect(server.local_addr()).expect("connect");
    server.stop();
}

#[test]
fn oversized_request_line_is_rejected_and_connection_dropped() {
    let server = Server::start(Arc::new(Engine::new()), "127.0.0.1:0", 2).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Stream one byte past the 1 MiB request-line cap with no newline in
    // sight. The server must refuse to buffer more — it replies and
    // closes instead of growing memory until a newline shows up. (Writing
    // exactly to the trigger point keeps the close clean: nothing is left
    // unread on the server side to turn the close into a reset that could
    // discard the reply.)
    let chunk = [b'x'; 64 * 1024];
    for _ in 0..16 {
        if stream.write_all(&chunk).is_err() {
            break; // server already closed its read side
        }
    }
    let _ = stream.write_all(b"x");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert_eq!(reply.trim_end(), "err line too long");
    // Clean close: the next read is EOF, not a hung connection.
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).expect("read eof"), 0);
    server.stop();
}

#[test]
fn stop_returns_promptly_under_wildcard_bind() {
    let server = Server::start(Arc::new(Engine::new()), "0.0.0.0:0", 1).expect("bind");
    let port = server.local_addr().port();
    // Sanity: the wildcard listener is reachable via loopback, and an
    // idle connection stays open across the stop.
    let mut c = Client::connect(std::net::SocketAddr::from(([127, 0, 0, 1], port)));
    assert_eq!(c.request("ping"), "ok pong");
    // `local_addr()` reports `0.0.0.0:port`, which is not a connectable
    // destination everywhere, so shutdown must not connect to it: it
    // wakes the reactor through its poller. Guard with a watchdog so a
    // regression fails fast instead of hanging the suite on the reactor
    // join.
    let (tx, rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.stop();
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown hung under wildcard bind");
    stopper.join().expect("stopper panicked");
}
