//! End-to-end tests of the nonblocking event-loop front: real TCP
//! sockets against a real [`Service`] over a real [`LiveTimeline`].
//!
//! What must hold, regardless of which front the platform resolves to
//! (the `epoll` loop on Linux, the threaded fallback elsewhere — both
//! drive the same [`avt_serve::Conn`] state machine):
//!
//! * **Pipelining is order-independent.** A binary client that writes a
//!   burst of requests in one syscall gets every reply, matched by id,
//!   even though slow queries (BEST) and fast ones (INFO) complete out
//!   of submission order.
//! * **A slow reader cannot wedge the server.** A client that pipelines
//!   far past the in-flight cap and only *then* starts reading still
//!   gets every reply; the server bounds its buffers by pausing parsing
//!   instead of ballooning.
//! * **Both wire formats share the port**, sniffed per connection; a
//!   text client and a binary client converse concurrently.
//! * **The shutdown verb drains the front**: `run` returns, the worker
//!   pool reports no panics.
//! * **No reply is held back.** The second of two pipelined replies
//!   leaves when it is encoded, not when the client's delayed ACK of the
//!   first one arrives; and on the ordered text codec a read answered on
//!   the loop still waits for the pool-answered request before it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use avt::datasets::er::gnm;
use avt_serve::codec::{Codec, TextCodec};
use avt_serve::{BinaryCodec, EventFront, LiveTimeline, Request, Response, Service, ServiceConfig};

/// Boot a service on an ephemeral port; returns the address and the
/// serving thread (joins once a client sends the shutdown verb, yielding
/// the front's verdict and the worker-panic count).
fn boot(seed: u64) -> (SocketAddr, std::thread::JoinHandle<(std::io::Result<()>, usize)>) {
    boot_on(gnm(60, 240, seed))
}

/// [`boot`] over a caller-chosen graph.
fn boot_on(
    graph: avt::graph::Graph,
) -> (SocketAddr, std::thread::JoinHandle<(std::io::Result<()>, usize)>) {
    let timeline = Arc::new(LiveTimeline::new(graph));
    let service = Service::start(timeline, ServiceConfig { workers: 2, ..Default::default() });
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || {
        let verdict = EventFront::default().run(listener, &service);
        (verdict, service.shutdown().worker_panics)
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream
}

/// Read frames off `stream` until `want` replies are decoded (or EOF).
fn read_replies(
    stream: &mut TcpStream,
    codec: &dyn Codec,
    want: usize,
) -> Vec<(Option<u64>, Result<Response, String>)> {
    let mut rbuf = Vec::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while out.len() < want {
        while let Some(len) = codec.decode_frame(&rbuf).expect("well-formed reply stream") {
            let frame: Vec<u8> = rbuf.drain(..len).collect();
            out.push(codec.decode_response(&frame).expect("response frame"));
            if out.len() == want {
                return out;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => panic!("server closed with {}/{want} replies read", out.len()),
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("read: {e}"),
        }
    }
    out
}

/// Send the shutdown verb over an existing binary connection and join
/// the serving thread, asserting a clean drain.
fn shutdown_and_join(
    stream: &mut TcpStream,
    handle: std::thread::JoinHandle<(std::io::Result<()>, usize)>,
) {
    let codec = BinaryCodec;
    let mut wire = Vec::new();
    codec.encode_shutdown(999_999, &mut wire);
    stream.write_all(&wire).expect("write shutdown");
    let replies = read_replies(stream, &codec, 1);
    assert!(
        matches!(replies[0], (Some(999_999), Ok(Response::Bye))),
        "unexpected shutdown reply {replies:?}"
    );
    let (verdict, panics) = handle.join().expect("serving thread");
    verdict.expect("front drained cleanly");
    assert_eq!(panics, 0, "query workers panicked");
}

#[test]
fn pipelined_burst_is_order_independent() {
    let (addr, handle) = boot(7);
    let codec = BinaryCodec;
    let mut stream = connect(addr);

    // One write syscall carries the whole burst: a slow solve first,
    // then a fan of fast lookups — if replies were matched by arrival
    // order instead of id, the BEST reply would scramble everything.
    let mut wire = Vec::new();
    codec.encode_request(
        1_000,
        &Request::Best { k: 3, b: 2, algo: avt_serve::BestAlgo::Olak },
        &mut wire,
    );
    let lookups = 40u64;
    for i in 0..lookups {
        codec.encode_request(2_000 + i, &Request::Core(i as u32), &mut wire);
    }
    stream.write_all(&wire).expect("write burst");

    let mut by_id: HashMap<u64, Response> = HashMap::new();
    for (id, reply) in read_replies(&mut stream, &codec, lookups as usize + 1) {
        by_id.insert(id.expect("binary replies carry ids"), reply.expect("query succeeds"));
    }
    assert!(matches!(by_id.get(&1_000), Some(Response::Best { .. })));
    for i in 0..lookups {
        match by_id.get(&(2_000 + i)) {
            // The id binds the reply to its request: the queried vertex
            // must round-trip.
            Some(Response::Core { v, .. }) => assert_eq!(*v as u64, i, "reply/request mismatch"),
            other => panic!("lookup {i}: unexpected reply {other:?}"),
        }
    }
    shutdown_and_join(&mut stream, handle);
}

#[test]
fn slow_reader_gets_every_reply_without_wedging_the_server() {
    let (addr, handle) = boot(11);
    let codec = BinaryCodec;
    let mut stream = connect(addr);

    // Pipeline far past the server's in-flight cap (128) while refusing
    // to read. The server must pause parsing instead of buffering
    // unboundedly — and resume as we finally drain.
    let total = 2_000u64;
    let mut wire = Vec::new();
    for i in 0..total {
        codec.encode_request(i, &Request::Spectrum, &mut wire);
    }
    stream.write_all(&wire).expect("write flood");
    // Stay deliberately idle: everything past the cap sits in kernel +
    // server read buffers while replies back up toward our socket.
    std::thread::sleep(Duration::from_millis(300));

    let mut seen = vec![false; total as usize];
    for (id, reply) in read_replies(&mut stream, &codec, total as usize) {
        let id = id.expect("binary replies carry ids") as usize;
        assert!(!std::mem::replace(&mut seen[id], true), "duplicate reply {id}");
        assert!(matches!(reply, Ok(Response::Spectrum { .. })), "reply {id}: {reply:?}");
    }
    assert!(seen.iter().all(|&s| s), "missing replies");
    shutdown_and_join(&mut stream, handle);
}

#[test]
fn both_wire_formats_share_the_port() {
    let (addr, handle) = boot(13);

    // Text client: classic newline protocol, replies in request order.
    let mut text = connect(addr);
    text.write_all(b"INFO\nSPECTRUM\n").expect("write text");

    // Binary client on a second connection at the same time.
    let codec = BinaryCodec;
    let mut binary = connect(addr);
    let mut wire = Vec::new();
    codec.encode_request(5, &Request::Info, &mut wire);
    binary.write_all(&wire).expect("write binary");

    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    for _ in 0..2 {
        line.clear();
        loop {
            assert_eq!(text.read(&mut byte).expect("read text"), 1, "unexpected EOF");
            if byte[0] == b'\n' {
                break;
            }
            line.push(byte[0]);
        }
        assert!(
            line.starts_with(b"OK info") || line.starts_with(b"OK spectrum"),
            "unexpected text reply {:?}",
            String::from_utf8_lossy(&line)
        );
    }

    let replies = read_replies(&mut binary, &codec, 1);
    assert!(
        matches!(&replies[0], (Some(5), Ok(Response::Info { .. }))),
        "unexpected binary reply {replies:?}"
    );
    shutdown_and_join(&mut binary, handle);
}

#[test]
fn text_shutdown_verb_drains_the_front_too() {
    let (addr, handle) = boot(17);
    let mut text = connect(addr);
    text.write_all(b"SHUTDOWN\n").expect("write shutdown");
    let mut reply = String::new();
    text.read_to_string(&mut reply).expect("read bye");
    assert_eq!(reply, "OK bye\n");
    let (verdict, panics) = handle.join().expect("serving thread");
    verdict.expect("front drained cleanly");
    assert_eq!(panics, 0);
}

#[test]
fn second_reply_of_a_pipelined_pair_is_not_held_back() {
    // Big enough that FOLLOWERS (a core decomposition, ~0.3 ms) finishes
    // well after CORE, so the two replies leave in separate writes.
    let (addr, handle) = boot_on(gnm(1_000, 5_000, 19));
    let codec = BinaryCodec;
    let mut stream = connect(addr);

    // A pool-answered FOLLOWERS and a loop-answered CORE in one write.
    // If the socket batched small segments (Nagle), the later reply would
    // wait for the client's delayed ACK of the earlier one, ~40 ms on
    // Linux.
    let mut rounds = Vec::new();
    for round in 0..40u64 {
        let v = (round % 60) as u32;
        let mut wire = Vec::new();
        codec.encode_request(2 * round, &Request::Followers { k: 3, anchor: v }, &mut wire);
        codec.encode_request(2 * round + 1, &Request::Core(v), &mut wire);
        let start = Instant::now();
        stream.write_all(&wire).expect("write pair");
        for (id, reply) in read_replies(&mut stream, &codec, 2) {
            let id = id.expect("binary replies carry ids");
            assert!(id / 2 == round, "reply {id} outside round {round}");
            assert!(reply.is_ok(), "request {id} failed: {reply:?}");
        }
        rounds.push(start.elapsed());
    }
    rounds.sort_unstable();
    let p90 = rounds[rounds.len() * 9 / 10 - 1];
    assert!(p90 < Duration::from_millis(15), "p90 round trip {p90:?}; rounds {rounds:?}");
    shutdown_and_join(&mut stream, handle);
}

#[test]
fn text_replies_keep_request_order_across_loop_and_pool() {
    let (addr, handle) = boot(23);
    let mut text = connect(addr);

    // CORE is answered on the loop the moment it is decoded, before the
    // pool finishes the FOLLOWERS ahead of it; the text codec has no
    // reply ids, so the CORE reply must still come second.
    for round in 0..10u32 {
        let (anchor, v) = (round, 59 - round);
        text.write_all(format!("FOLLOWERS 3 {anchor}\nCORE {v}\n").as_bytes()).expect("write pair");
        let replies = read_replies(&mut text, &TextCodec, 2);
        match &replies[0] {
            (None, Ok(Response::Followers { anchor: a, .. })) => assert_eq!(*a, anchor),
            other => panic!("round {round}: expected the FOLLOWERS reply first, got {other:?}"),
        }
        match &replies[1] {
            (None, Ok(Response::Core { v: got, .. })) => assert_eq!(*got, v),
            other => panic!("round {round}: expected the CORE reply second, got {other:?}"),
        }
    }

    text.write_all(b"SHUTDOWN\n").expect("write shutdown");
    let replies = read_replies(&mut text, &TextCodec, 1);
    assert!(matches!(replies[0], (None, Ok(Response::Bye))), "unexpected reply {replies:?}");
    let (verdict, panics) = handle.join().expect("serving thread");
    verdict.expect("front drained cleanly");
    assert_eq!(panics, 0);
}
