//! The serve client: a blocking probe connection and the open-loop generator.
//!
//! The open loop behaves the way `loadgen`'s does: one thread, one epoll
//! instance, nonblocking pipelined binary connections with default socket
//! options, every request sent at its scheduled instant whatever the
//! server is doing, and every latency measured from that instant. (The
//! schedule itself is the caller's; the workloads use Poisson arrivals.)
//! Between sends the thread sleeps on a `timerfd` armed for the next send
//! instant, where `loadgen` spins through the last millisecond. Nothing
//! here touches `TCP_NODELAY` or `TCP_QUICKACK`: the client must see the
//! server's socket behaviour as it is.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, FromRawFd};
use std::time::{Duration, Instant};

use avt_serve::{BinaryCodec, Codec, Poller, Request, Response};

static BINARY: BinaryCodec = BinaryCodec;

/// One synchronous binary-protocol connection for set-up and checks.
pub struct Probe {
    stream: TcpStream,
    rbuf: Vec<u8>,
    next_id: u64,
}

impl Probe {
    /// Connect, retrying until `patience` runs out.
    pub fn connect(addr: &str, patience: Duration) -> Result<Probe, String> {
        let deadline = Instant::now() + patience;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .map_err(|e| format!("set read timeout: {e}"))?;
                    return Ok(Probe { stream, rbuf: Vec::new(), next_id: 0 });
                }
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
            }
        }
    }

    fn read_frame(&mut self) -> Result<Vec<u8>, String> {
        loop {
            if let Some(len) = BINARY.decode_frame(&self.rbuf)? {
                return Ok(self.rbuf.drain(..len).collect());
            }
            let mut buf = [0u8; 8192];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// One request, one reply.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut wire = Vec::new();
        BINARY.encode_request(id, request, &mut wire);
        self.stream.write_all(&wire).map_err(|e| format!("write: {e}"))?;
        let frame = self.read_frame()?;
        let (got, reply) = BINARY.decode_response(&frame)?;
        if got.is_some_and(|got| got != id) {
            return Err(format!("reply id {got:?} for request id {id}"));
        }
        reply
    }

    /// Ask the server to stop; expects the `bye` acknowledgement.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut wire = Vec::new();
        BINARY.encode_shutdown(self.next_id, &mut wire);
        self.stream.write_all(&wire).map_err(|e| format!("write: {e}"))?;
        match BINARY.decode_response(&self.read_frame()?)? {
            (_, Ok(Response::Bye)) => Ok(()),
            (_, other) => Err(format!("unexpected shutdown reply {other:?}")),
        }
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub enum Fate {
    /// Never answered (still unsent or in flight when the grace period
    /// ended).
    Lost,
    /// Answered with an error reply.
    Refused(String),
    /// Answered.
    Answered {
        /// Latency from the scheduled send, µs.
        latency_us: f64,
        /// Reply arrival, µs after the run's start.
        at_us: f64,
        /// The reply.
        reply: Response,
    },
}

/// The open loop's record of one run.
#[derive(Debug)]
pub struct OpenLoop {
    /// One fate per scheduled request, by index.
    pub fates: Vec<Fate>,
    /// How late the generator handed each sent request to its socket
    /// buffer, µs after its scheduled instant.
    pub late_us: Vec<f64>,
}

impl OpenLoop {
    /// Requests that did not get a successful reply.
    pub fn failed(&self) -> usize {
        self.fates.iter().filter(|f| !matches!(f, Fate::Answered { .. })).count()
    }
}

struct Lane {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    in_flight: VecDeque<u64>,
    interest: (bool, bool),
}

/// Send `requests[i]` at `schedule[i]` seconds after the start over
/// `connections` pipelined connections, then wait up to `grace` after the
/// last scheduled send for the replies still out. Consecutive groups of
/// `group` requests share a connection, round robin.
pub fn open_loop(
    addr: &str,
    requests: &[Request],
    schedule: &[f64],
    connections: usize,
    group: usize,
    grace: Duration,
) -> Result<OpenLoop, String> {
    assert_eq!(requests.len(), schedule.len(), "one send time per request");
    let connections = connections.max(1);
    let poller = Poller::new().map_err(|e| format!("epoll: {e}"))?;
    let mut lanes = Vec::with_capacity(connections);
    for token in 0..connections {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nonblocking(true).map_err(|e| format!("set nonblocking: {e}"))?;
        poller
            .register(stream.as_raw_fd(), token as u64, true, false)
            .map_err(|e| format!("register: {e}"))?;
        lanes.push(Lane {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            in_flight: VecDeque::new(),
            interest: (true, false),
        });
    }

    // The send clock: a timer armed for the next due instant, so the
    // thread sleeps until then instead of spinning out the last
    // millisecond that an epoll timeout cannot express.
    let timer = SendTimer::new()?;
    let timer_token = connections as u64;
    poller
        .register(timer.file.as_raw_fd(), timer_token, true, false)
        .map_err(|e| format!("register timer: {e}"))?;

    let total = requests.len();
    let mut fates: Vec<Fate> = vec![Fate::Lost; total];
    let mut late_us = Vec::with_capacity(total);
    let mut outstanding = total;
    let mut events = Vec::new();
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(schedule[i]);
    let deadline = due(total.saturating_sub(1)) + grace;
    let mut next = 0usize;
    let mut touched = vec![false; connections];

    while outstanding > 0 {
        let now = Instant::now();
        if now > deadline {
            break;
        }
        // Everything due goes out now, backed-up socket or not: the
        // schedule never waits for the server.
        while next < total && due(next) <= now {
            let lane_ix = next / group.max(1) % connections;
            let lane = &mut lanes[lane_ix];
            BINARY.encode_request(next as u64, &requests[next], &mut lane.wbuf);
            lane.in_flight.push_back(next as u64);
            late_us
                .push(Instant::now().saturating_duration_since(due(next)).as_nanos() as f64 / 1e3);
            touched[lane_ix] = true;
            next += 1;
        }
        for token in 0..connections {
            if std::mem::take(&mut touched[token]) {
                flush(&mut lanes[token])?;
                update_interest(&poller, &mut lanes[token], token)?;
            }
        }

        if next < total {
            timer.arm(due(next).saturating_duration_since(Instant::now()))?;
        }
        poller.wait(&mut events, 50).map_err(|e| format!("epoll wait: {e}"))?;
        for ev in &events {
            if ev.token == timer_token {
                timer.clear();
                continue;
            }
            let token = ev.token as usize;
            let lane = &mut lanes[token];
            if ev.readable {
                read_available(lane)?;
                while let Some(len) = BINARY.decode_frame(&lane.rbuf)? {
                    let frame: Vec<u8> = lane.rbuf.drain(..len).collect();
                    let (id, reply) = BINARY.decode_response(&frame)?;
                    let idx = id.ok_or("binary reply without an id")?;
                    let pos = lane
                        .in_flight
                        .iter()
                        .position(|&s| s == idx)
                        .ok_or_else(|| format!("reply for request {idx} not in flight"))?;
                    lane.in_flight.remove(pos);
                    let now = Instant::now();
                    outstanding -= 1;
                    fates[idx as usize] = match reply {
                        Ok(reply) => Fate::Answered {
                            latency_us: now.saturating_duration_since(due(idx as usize)).as_nanos()
                                as f64
                                / 1e3,
                            at_us: now.duration_since(start).as_nanos() as f64 / 1e3,
                            reply,
                        },
                        Err(message) => Fate::Refused(message),
                    };
                }
            }
            if ev.writable {
                flush(lane)?;
            }
            update_interest(&poller, lane, token)?;
        }
    }
    Ok(OpenLoop { fates, late_us })
}

mod sys {
    use std::os::raw::{c_int, c_long};

    pub const CLOCK_MONOTONIC: c_int = 1;
    pub const TFD_NONBLOCK: c_int = 0o4000;
    pub const TFD_CLOEXEC: c_int = 0o2000000;

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    #[repr(C)]
    pub struct Itimerspec {
        pub it_interval: Timespec,
        pub it_value: Timespec,
    }

    extern "C" {
        pub fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
        pub fn timerfd_settime(
            fd: c_int,
            flags: c_int,
            new: *const Itimerspec,
            old: *mut Itimerspec,
        ) -> c_int;
    }
}

/// A nonblocking `timerfd` on the monotonic clock, the clock `Instant`
/// reads. Armed one-shot; readable once it has fired.
struct SendTimer {
    file: File,
}

impl SendTimer {
    fn new() -> Result<SendTimer, String> {
        // SAFETY: no pointers; the fd is handed to a File, which closes it.
        let fd = unsafe {
            sys::timerfd_create(sys::CLOCK_MONOTONIC, sys::TFD_NONBLOCK | sys::TFD_CLOEXEC)
        };
        if fd < 0 {
            return Err(format!("timerfd_create: {}", std::io::Error::last_os_error()));
        }
        // SAFETY: `fd` is a fresh descriptor owned by nothing else.
        Ok(SendTimer { file: unsafe { File::from_raw_fd(fd) } })
    }

    /// Fire once, `after` from now (at once when `after` is zero).
    fn arm(&self, after: Duration) -> Result<(), String> {
        // A zero value would disarm the timer; one nanosecond fires at once.
        let after = after.max(Duration::from_nanos(1));
        let spec = sys::Itimerspec {
            it_interval: sys::Timespec { tv_sec: 0, tv_nsec: 0 },
            it_value: sys::Timespec {
                tv_sec: after.as_secs() as _,
                tv_nsec: after.subsec_nanos() as _,
            },
        };
        // SAFETY: `spec` is live for the call; the old value is not asked for.
        let rc =
            unsafe { sys::timerfd_settime(self.file.as_raw_fd(), 0, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(format!("timerfd_settime: {}", std::io::Error::last_os_error()));
        }
        Ok(())
    }

    /// Consume the expiry count, so the descriptor stops reading ready.
    fn clear(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

fn read_available(lane: &mut Lane) -> Result<(), String> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match lane.stream.read(&mut buf) {
            Ok(0) => return Err("server closed a connection".into()),
            Ok(n) => lane.rbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

fn flush(lane: &mut Lane) -> Result<(), String> {
    while !lane.wbuf.is_empty() {
        match lane.stream.write(&lane.wbuf) {
            Ok(0) => return Err("server closed the connection mid-write".into()),
            Ok(n) => {
                lane.wbuf.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

fn update_interest(poller: &Poller, lane: &mut Lane, token: usize) -> Result<(), String> {
    let want = (true, !lane.wbuf.is_empty());
    if want != lane.interest {
        poller
            .modify(lane.stream.as_raw_fd(), token as u64, want.0, want.1)
            .map_err(|e| format!("epoll modify: {e}"))?;
        lane.interest = want;
    }
    Ok(())
}
