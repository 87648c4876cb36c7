//! Framing torture tests for the event-loop front end: requests arrive
//! byte by byte, split at arbitrary points, pipelined in large batches,
//! as binary frames (well-formed, torn, and oversized), and the same
//! traffic must produce identical replies under both framings.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use magik_server::{Engine, Server};

fn start() -> (Server, SocketAddr) {
    let engine = Arc::new(Engine::new());
    let server = Server::start(engine, "127.0.0.1:0", 4).expect("bind");
    let addr = server.local_addr();
    (server, addr)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    s
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read line");
    line.trim_end().to_string()
}

/// Reads one `[len u32 LE][payload]` reply frame.
fn read_frame(reader: &mut BufReader<TcpStream>) -> String {
    let mut len = [0u8; 4];
    reader.read_exact(&mut len).expect("frame length");
    let len = u32::from_le_bytes(len) as usize;
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).expect("frame payload");
    String::from_utf8(payload).expect("utf-8 reply")
}

fn frame(cmd: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(cmd.len() + 4);
    buf.extend_from_slice(&(cmd.len() as u32).to_le_bytes());
    buf.extend_from_slice(cmd.as_bytes());
    buf
}

#[test]
fn requests_dripped_one_byte_at_a_time_still_parse() {
    let (server, addr) = start();
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for &(req, reply) in &[
        ("ping\n", "ok pong"),
        ("compl school(S, primary, D) ; true.\n", "ok epoch=1"),
        ("check q(S) :- school(S, primary, bz).\n", "ok complete"),
    ] {
        for b in req.as_bytes() {
            stream.write_all(std::slice::from_ref(b)).expect("drip");
            stream.flush().expect("flush");
        }
        assert_eq!(read_line(&mut reader), reply);
    }
    server.stop();
}

#[test]
fn requests_split_across_arbitrary_write_boundaries_still_parse() {
    let (server, addr) = start();
    // Fixed-width index keeps every iteration's payload the same length,
    // and a unique district keeps each iteration's replies independent
    // of the state earlier iterations left behind.
    let payload_for = |i: usize| {
        format!(
            "ping\nassert school(s{i:03}, primary, d{i:03}).\n\
             eval q(S) :- school(S, primary, d{i:03}).\nping\n"
        )
    };
    let len = payload_for(0).len();
    // Every split point of the pipelined payload, including the
    // boundaries (all-at-once and one-then-rest).
    for split in 0..=len {
        let payload = payload_for(split).into_bytes();
        let mut stream = connect(addr);
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        stream.write_all(&payload[..split]).expect("first half");
        stream.flush().expect("flush");
        // A pause so the server observes a genuine partial request.
        if split % 17 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        stream.write_all(&payload[split..]).expect("second half");
        assert_eq!(read_line(&mut reader), "ok pong", "split at byte {split}");
        assert_eq!(
            read_line(&mut reader),
            "ok inserted",
            "split at byte {split}"
        );
        let eval = read_line(&mut reader);
        assert!(eval.starts_with("ok 1 "), "split at byte {split}: {eval}");
        assert_eq!(read_line(&mut reader), "ok pong", "split at byte {split}");
    }
    server.stop();
}

#[test]
fn pipelined_batch_replies_in_request_order() {
    let (server, addr) = start();
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Dependent prefix: the check only holds once the compl landed, so
    // in-order execution (not just in-order replies) is observable.
    let mut batch = String::from("compl school(S, T, D) ; true.\n");
    let n = 100;
    for i in 0..n {
        batch.push_str(&format!("assert school(s{i}, primary, bz).\n"));
        batch.push_str("check q(S) :- school(S, primary, bz).\n");
    }
    batch.push_str("eval q(S) :- school(S, primary, bz).\nquit\n");
    stream.write_all(batch.as_bytes()).expect("batch");

    assert_eq!(read_line(&mut reader), "ok epoch=1");
    for i in 0..n {
        assert_eq!(read_line(&mut reader), "ok inserted", "assert {i}");
        assert_eq!(read_line(&mut reader), "ok complete", "check {i}");
    }
    let eval = read_line(&mut reader);
    assert!(eval.starts_with(&format!("ok {n} ")), "eval reply: {eval}");
    assert_eq!(read_line(&mut reader), "ok bye");
    // `quit` closes after its reply.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);
    server.stop();
}

#[test]
fn pipelined_status_reflects_the_requests_ahead_of_it() {
    // `replication` is an engine request, so it takes its turn in the
    // pipeline: a status sent behind mutations must report the epochs
    // those mutations produced, not the parse-time state.
    let (server, addr) = start();
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(
            b"compl school(S, T, D) ; true.\n\
              assert school(s0, primary, bz).\n\
              assert school(s1, primary, bz).\n\
              replication\n",
        )
        .expect("batch");
    assert_eq!(read_line(&mut reader), "ok epoch=1");
    assert_eq!(read_line(&mut reader), "ok inserted");
    assert_eq!(read_line(&mut reader), "ok inserted");
    assert_eq!(
        read_line(&mut reader),
        "ok role=primary durable=false tcs=1 data=2 subscribers=0"
    );
    server.stop();
}

#[test]
fn binary_framing_negotiates_and_round_trips() {
    let (server, addr) = start();
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // The ack for the switch arrives in the *old* (line) framing.
    stream.write_all(b"frames\n").expect("probe");
    assert_eq!(read_line(&mut reader), "ok frames=line");
    stream.write_all(b"frames binary\n").expect("switch");
    assert_eq!(read_line(&mut reader), "ok frames=binary");

    // From here, both directions are length-prefixed frames.
    stream
        .write_all(&frame("compl pupil(N, C, S) ; true."))
        .expect("compl");
    assert_eq!(read_frame(&mut reader), "ok epoch=1");
    stream.write_all(&frame("frames")).expect("probe");
    assert_eq!(read_frame(&mut reader), "ok frames=binary");

    // And back: the ack for the switch to line framing is the last
    // binary frame.
    stream
        .write_all(&frame("frames line"))
        .expect("switch back");
    assert_eq!(read_frame(&mut reader), "ok frames=line");
    stream.write_all(b"ping\n").expect("ping");
    assert_eq!(read_line(&mut reader), "ok pong");
    server.stop();
}

#[test]
fn identical_traffic_gets_identical_replies_under_both_framings() {
    let requests = [
        "compl school(S, primary, D) ; true.",
        "compl pupil(N, C, S) ; school(S, T, merano).",
        "assert pupil(ann, c1, hofer).",
        "check q(N) :- pupil(N, C, S), school(S, primary, merano).",
        "check q(N) :- pupil(N, C, S), school(S, primary, bolzano).",
        "eval q(N) :- pupil(N, C, S).",
        "metrics",
    ];

    // Line framing, fresh engine.
    let (line_server, line_addr) = start();
    let mut stream = connect(line_addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line_replies = Vec::new();
    for req in &requests {
        stream
            .write_all(format!("{req}\n").as_bytes())
            .expect("send");
        line_replies.push(read_line(&mut reader));
    }
    line_server.stop();

    // Binary framing, fresh engine, same traffic.
    let (bin_server, bin_addr) = start();
    let mut stream = connect(bin_addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(b"frames binary\n").expect("switch");
    assert_eq!(read_line(&mut reader), "ok frames=binary");
    let mut bin_replies = Vec::new();
    for req in &requests {
        stream.write_all(&frame(req)).expect("send");
        bin_replies.push(read_frame(&mut reader));
    }
    bin_server.stop();

    // Metrics contain live latency numbers; compare the deterministic
    // prefix only.
    for (req, (line, bin)) in requests.iter().zip(line_replies.iter().zip(&bin_replies)) {
        if *req == "metrics" {
            assert!(line.starts_with("ok "), "line metrics: {line}");
            assert!(bin.starts_with("ok "), "binary metrics: {bin}");
        } else {
            assert_eq!(line, bin, "replies diverge for `{req}`");
        }
    }
}

#[test]
fn torn_binary_frame_is_dropped_without_a_reply() {
    let (server, addr) = start();
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(b"frames binary\n").expect("switch");
    assert_eq!(read_line(&mut reader), "ok frames=binary");

    // A frame that claims 100 bytes but delivers 10, then half-close.
    stream.write_all(&100u32.to_le_bytes()).expect("length");
    stream.write_all(b"0123456789").expect("torn payload");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    // The tail can never complete: the server closes without replying.
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("eof"), 0);
    server.stop();
}

#[test]
fn oversized_and_empty_binary_frames_are_protocol_errors() {
    let (server, addr) = start();

    // Oversized: the declared length exceeds the 1 MiB cap; the server
    // must refuse *before* buffering any payload.
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(b"frames binary\n").expect("switch");
    assert_eq!(read_line(&mut reader), "ok frames=binary");
    stream
        .write_all(&(u32::try_from(1 << 20).unwrap() + 1).to_le_bytes())
        .expect("oversized length");
    assert_eq!(
        read_frame(&mut reader),
        "err proto frame exceeds the size cap"
    );
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("eof"), 0);

    // Empty: a zero-length frame is meaningless and likely a desynced
    // client; refuse and close.
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(b"frames binary\n").expect("switch");
    assert_eq!(read_line(&mut reader), "ok frames=binary");
    stream.write_all(&0u32.to_le_bytes()).expect("empty frame");
    assert_eq!(read_frame(&mut reader), "err proto empty frame");
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("eof"), 0);

    server.stop();
}

#[test]
fn unknown_framing_name_is_refused_without_switching() {
    let (server, addr) = start();
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(b"frames gopher\n").expect("bad name");
    assert_eq!(read_line(&mut reader), "err proto unknown framing `gopher`");
    // Still in line framing, still alive.
    stream.write_all(b"ping\n").expect("ping");
    assert_eq!(read_line(&mut reader), "ok pong");
    server.stop();
}

#[test]
fn slow_reader_on_the_reactor_does_not_starve_other_clients() {
    // The event-loop version of the slow-reader scenario: a client
    // pipelines work and never reads replies. On the reactor this must
    // cost buffers, not a worker — other clients stay served.
    let engine = Arc::new(Engine::new());
    assert!(engine
        .handle("compl school(S, T, D) ; true.")
        .starts_with("ok"));
    for i in 0..500 {
        assert_eq!(
            engine.handle(&format!("assert school(s{i}, primary, bz).")),
            "ok inserted"
        );
    }
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr();

    // The non-reader: pipeline many evals (large replies) and never read.
    let mut glutton = connect(addr);
    let mut batch = String::new();
    for _ in 0..200 {
        batch.push_str("eval q(S) :- school(S, primary, bz).\n");
    }
    glutton.write_all(batch.as_bytes()).expect("flood");

    // Meanwhile a well-behaved client gets prompt service.
    let mut polite = connect(addr);
    let mut reader = BufReader::new(polite.try_clone().expect("clone"));
    for _ in 0..20 {
        polite.write_all(b"ping\n").expect("ping");
        assert_eq!(read_line(&mut reader), "ok pong");
    }
    drop(glutton);
    server.stop();
}
