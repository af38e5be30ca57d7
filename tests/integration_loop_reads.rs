//! Reads the fronts answer on their own thread (`INFO`, `SPECTRUM`,
//! `CORE`: the ones that only copy what the epoch published) skip the
//! worker pool, but must be accounted for exactly as pool answers are:
//!
//! * `STATS` counts them in `served` and in their per-op rows;
//! * with telemetry on, `avt_request_us{op="core"}` counts every `CORE`,
//!   and pool-answered requests charge a `handoff` stage;
//! * once [`Service::begin_shutdown`] has run, they are refused with the
//!   same `service is shutting down` error the closed pool gives.
//!
//! Both fronts are checked: the epoll loop and the thread-per-connection
//! fallback. The metrics registry is process-wide, so this file holds a
//! single test that runs the scenarios one after the other.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use avt::datasets::er::gnm;
use avt_serve::codec::Codec;
use avt_serve::{
    set_obs_mode, BinaryCodec, EventFront, LiveTimeline, ObsMode, OpClass, Request, Response,
    Service, ServiceConfig,
};

const CODEC: BinaryCodec = BinaryCodec;

/// Send `requests` in one write (ids 0, 1, …) and return the replies
/// ordered by id.
fn call(stream: &mut TcpStream, requests: &[Request]) -> Vec<Result<Response, String>> {
    let mut wire = Vec::new();
    for (id, request) in requests.iter().enumerate() {
        CODEC.encode_request(id as u64, request, &mut wire);
    }
    stream.write_all(&wire).expect("write requests");
    let mut replies: Vec<Option<Result<Response, String>>> = vec![None; requests.len()];
    let (mut rbuf, mut chunk, mut got) = (Vec::new(), [0u8; 16 * 1024], 0);
    loop {
        while let Some(len) = CODEC.decode_frame(&rbuf).expect("well-formed reply stream") {
            let frame: Vec<u8> = rbuf.drain(..len).collect();
            let (id, reply) = CODEC.decode_response(&frame).expect("response frame");
            let slot = &mut replies[id.expect("binary replies carry ids") as usize];
            assert!(slot.replace(reply).is_none(), "duplicate reply");
            got += 1;
        }
        if got == requests.len() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => panic!("server closed early"),
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
    replies.into_iter().map(|r| r.expect("every id answered")).collect()
}

/// The per-op request count and the followers handoff-stage count, from
/// a `METRICS` reply (0 before the first sample registers a series).
fn counts(stream: &mut TcpStream) -> [u64; 2] {
    let Ok(Response::Metrics { text }) = call(stream, &[Request::Metrics]).remove(0) else {
        panic!("METRICS failed");
    };
    let value = |series: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .map_or(0, |count| count.parse().expect("numeric count"))
    };
    [
        value("avt_request_us_count{op=\"core\"}"),
        value("avt_stage_us_count{op=\"followers\",stage=\"handoff\"}"),
    ]
}

fn scenario(front: EventFront) {
    let timeline = Arc::new(LiveTimeline::new(gnm(60, 240, 29)));
    let service =
        Arc::new(Service::start(timeline, ServiceConfig { workers: 2, ..Default::default() }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("bound address");
    // A plain thread, not a scope: a failed assertion below must fail
    // the test, not wait forever on a front nobody told to stop.
    let serving = std::thread::spawn({
        let service = Arc::clone(&service);
        move || front.run(listener, &service)
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let before = counts(&mut stream);

    // Loop-answered reads, plus a few pool-answered FOLLOWERS among them.
    let (n, f) = (25, 5);
    let mut reads: Vec<Request> =
        (0..n).flat_map(|v| [Request::Core(v), Request::Spectrum]).collect();
    reads.extend((0..f).map(|anchor| Request::Followers { k: 3, anchor }));
    for reply in call(&mut stream, &reads) {
        assert!(reply.is_ok(), "read failed: {reply:?}");
    }

    let Ok(Response::Stats { served, per_op, .. }) = call(&mut stream, &[Request::Stats]).remove(0)
    else {
        panic!("STATS failed");
    };
    // The METRICS probe above was served too.
    assert_eq!(served, (2 * n + f) as u64 + 1, "served");
    let count = |op| per_op.iter().find(|row| row.op == op).map_or(0, |row| row.count);
    assert_eq!(count(OpClass::Core), n as u64, "per-op core");
    assert_eq!(count(OpClass::Spectrum), n as u64, "per-op spectrum");
    assert_eq!(count(OpClass::Followers), f as u64, "per-op followers");
    let after = counts(&mut stream);
    assert_eq!(after[0] - before[0], n as u64, "avt_request_us core count");
    assert_eq!(after[1] - before[1], f as u64, "followers handoff samples");

    service.begin_shutdown();
    let refused = call(&mut stream, &[Request::Core(0), Request::Followers { k: 3, anchor: 0 }]);
    for reply in refused {
        assert_eq!(reply, Err("service is shutting down".to_string()));
    }

    let mut wire = Vec::new();
    CODEC.encode_shutdown(0, &mut wire);
    stream.write_all(&wire).expect("write shutdown");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read bye");
    assert_eq!(CODEC.decode_response(&rest), Ok((Some(0), Ok(Response::Bye))));
    serving.join().expect("serving thread").expect("front drained cleanly");
    let service = Arc::into_inner(service).expect("the front released the service");
    assert_eq!(service.shutdown().worker_panics, 0);
}

#[test]
fn loop_answered_reads_are_counted_and_refused_after_shutdown() {
    set_obs_mode(ObsMode::On);
    scenario(EventFront::default());
    scenario(EventFront { threaded: true, ..Default::default() });
    set_obs_mode(ObsMode::Off);
}
