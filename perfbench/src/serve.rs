//! The `serve-read` and `serve-write` workloads: the real `avt-serve`
//! binary, driven over loopback by the open-loop client.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use avt_core::{AnchoredCoreState, AvtParams, Greedy, Olak, SnapshotSolver};
use avt_datasets::Dataset;
use avt_graph::{CsrGraph, Graph};
use avt_kcore::{CoreSpectrum, MaintainedCore};
use avt_obs::{Span as LifeSpan, Stage};
use avt_serve::{
    execute, Admission, BestAlgo, BinaryCodec, Codec, Conn, IngestEvent, LiveTimeline, OpClass,
    Request, Response, Service, ServiceConfig, ServiceStats, SubmitError,
};

use crate::client::{open_loop, Fate, OpenLoop, Probe};
use crate::mix::{poisson_schedule, read_stream, write_stream, WriteShape};
use crate::server::{host_cpu_ticks, steal_share, Server};
use crate::stats::{median, Samples};
use crate::trace::{SolverCounts, Tracer};
use crate::{Outcome, RunConfig};

/// Dataset scale the server runs at (its own default).
pub const SCALE: f64 = 0.02;
/// Offered rate of `serve-read`, requests per second.
pub const READ_QPS: f64 = 200.0;
/// Offered rate of `serve-write`, requests per second.
pub const WRITE_QPS: f64 = 400.0;
/// The served dataset's seed (the server's default). The workload seed
/// drives the traffic; the graph being served stays the same.
pub const DATASET_SEED: u64 = 42;
/// The server's admission lag window, pinned on its command line.
pub const LAG: u64 = 4;
/// Server starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 15;
/// Replies still out this long after the last scheduled send are lost.
const GRACE: Duration = Duration::from_secs(10);
/// The generator counts as having fallen behind its schedule when its
/// own send lateness has a p99 above this. Scheduling jitter on a busy
/// 2-vCPU host reaches a few ms; a generator that cannot keep the rate
/// falls behind without bound.
pub const LATE_LIMIT_US: f64 = 25_000.0;
/// Requests the traced run pushes through the in-process layer probes.
const PROBE_REQUESTS: usize = 800;
/// Requests from the start of the workload's schedule that the traced run
/// replays into an in-process service to time executor queue wait under
/// load: 20 s of `serve-read`, 10 s of `serve-write`. Either way 1600 of
/// them are CORE, enough for a p99 with ten samples beyond it.
const LOADED_REQUESTS: usize = 4000;
/// `serve-write`, shaped like `loadgen --ingest-mix 0.5 --ooo-frac 0.25`
/// (the CI write lane): `INGEST`s of one or two events, a quarter of them
/// stragglers sent one to three writes late — inside the lag window.
pub const WRITE_SHAPE: WriteShape = WriteShape { chunk: 2, straggler_pct: 25, max_delay: 3 };

static BINARY: BinaryCodec = BinaryCodec;

fn server_args() -> Vec<String> {
    [
        "--epochs",
        "1",
        "--scale",
        &SCALE.to_string(),
        "--seed",
        &DATASET_SEED.to_string(),
        "--ingest-lag",
        &LAG.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Start the server [`SETUP_STARTS`] times, keeping the last; returns it
/// with the median set-up time.
fn start_server(bin: &Path) -> Result<(Server, f64), String> {
    let mut times = Vec::with_capacity(SETUP_STARTS);
    for _ in 1..SETUP_STARTS {
        let (server, secs) = Server::start_timed(bin, &server_args())?;
        times.push(secs);
        server.stop()?;
    }
    let (server, secs) = Server::start_timed(bin, &server_args())?;
    times.push(secs);
    Ok((server, median(&times).expect("at least one start")))
}

/// `loadgen`'s degree threshold: the largest anchorable `k`.
fn calibrate_k(shells: &[usize]) -> u32 {
    let core_size = |k: usize| shells.iter().skip(k).sum::<usize>();
    (2..shells.len())
        .rev()
        .find(|&k| core_size(k) > 0 && shells[k - 1] > 0)
        .map(|k| k as u32)
        .unwrap_or(2)
}

/// The graph the server starts from: the same call the server makes.
fn served_initial() -> Graph {
    Dataset::Deezer.load_or_generate(SCALE, 1, DATASET_SEED).initial().clone()
}

/// Vertex and edge counts of the served epoch.
fn info(probe: &mut Probe) -> Result<(usize, usize), String> {
    match probe.call(&Request::Info)? {
        Response::Info { n, m, .. } => Ok((n, m)),
        other => Err(format!("INFO answered {other:?}")),
    }
}

/// Epoch and shell histogram of the served epoch.
fn spectrum(probe: &mut Probe) -> Result<(usize, Vec<usize>), String> {
    match probe.call(&Request::Spectrum)? {
        Response::Spectrum { t, shells } => Ok((t, shells)),
        other => Err(format!("SPECTRUM answered {other:?}")),
    }
}

/// Latencies of answered requests by class.
fn latencies(stream: &[Request], run: &OpenLoop) -> BTreeMap<OpClass, Samples> {
    let mut by_op: BTreeMap<OpClass, Vec<f64>> = BTreeMap::new();
    for (req, fate) in stream.iter().zip(&run.fates) {
        if let Fate::Answered { latency_us, .. } = fate {
            by_op.entry(req.op_class()).or_default().push(*latency_us);
        }
    }
    by_op.into_iter().map(|(k, v)| (k, Samples::new(v))).collect()
}

/// The end-to-end metrics both serve workloads share.
fn common_metrics(out: &mut Outcome, setup_s: f64, rss_mb: f64, cpu_s: f64, run: &OpenLoop) {
    let attempted = run.fates.len();
    let answered = attempted - run.failed();
    out.attempted = attempted as u64;
    out.failed = run.failed() as u64;
    out.report(format!(
        "requests: attempted={attempted} answered={answered} error_frac={:.6}",
        run.failed() as f64 / attempted.max(1) as f64
    ));
    if let Some(why) = run.fates.iter().find_map(|f| match f {
        Fate::Refused(why) => Some(why),
        _ => None,
    }) {
        out.report(format!("first refusal: {why}"));
    }
    let late = Samples::new(run.late_us.clone());
    out.report(format!("client.late_us: {}", late.describe("us")));
    out.check(
        "generator kept its schedule",
        match late.pct(99.0) {
            Some(p99) if p99 <= LATE_LIMIT_US => Ok(()),
            Some(p99) => Err(format!("send lateness p99 {p99:.0}us > {LATE_LIMIT_US}us")),
            None => Err("too few sends to judge lateness".into()),
        },
    );
    out.metrics.put("setup_s", setup_s, "s");
    out.metrics.put("rss_mb", rss_mb, "MB");
    out.metrics.put("ok_frac", answered as f64 / attempted.max(1) as f64, "ratio");

    let all = Samples::new(
        run.fates
            .iter()
            .filter_map(|f| match f {
                Fate::Answered { latency_us, .. } => Some(*latency_us),
                _ => None,
            })
            .collect(),
    );
    out.put_pct("p50_us", &all, 50.0, "us");
    out.put_pct("p99_us", &all, 99.0, "us");
    out.metrics.put("cpu_us_per_op", cpu_s * 1e6 / answered.max(1) as f64, "us");
}

fn report_class(out: &mut Outcome, by_op: &BTreeMap<OpClass, Samples>, op: OpClass, label: &str) {
    let empty = Samples::default();
    let s = by_op.get(&op).unwrap_or(&empty);
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1} us"));
    out.report(format!("{label}_p50_us = {} (n={})", show(s.pct(50.0)), s.len()));
    out.report(format!("{label}_p99_us = {} (n={})", show(s.pct(99.0)), s.len()));
}

/// Drive `stream` on `schedule` against the server; returns the run,
/// the CPU seconds the server spent on it and its peak RSS, with the
/// server still up for final probes.
fn drive(
    out: &mut Outcome,
    server: &Server,
    stream: &[Request],
    schedule: &[f64],
    (connections, group): (usize, usize),
) -> Result<(OpenLoop, f64, f64), String> {
    let (cpu0, host0) = (server.cpu_s()?, host_cpu_ticks()?);
    let run = open_loop(&server.addr, stream, schedule, connections, group, GRACE)?;
    let cpu_s = server.cpu_s()? - cpu0;
    out.report(format!("host steal {:.1}% during the run", 100.0 * steal_share(host0)?));
    Ok((run, cpu_s, server.hwm_mb()?))
}

/// `serve-read`: loadgen's read mix at [`READ_QPS`] (or `cfg.qps`) on a
/// static epoch.
pub fn serve_read(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (server, setup_s) = start_server(&cfg.server)?;
    let mut probe = Probe::connect(&server.addr, Duration::from_secs(5))?;
    let (n, _) = info(&mut probe)?;
    let (_, shells) = spectrum(&mut probe)?;
    drop(probe);
    let k = calibrate_k(&shells);
    let qps = cfg.qps.unwrap_or(READ_QPS);
    let count = (qps * cfg.seconds as f64) as usize;
    let stream = read_stream(cfg.seed, n, k, count);
    out.report(format!(
        "serve-read: n={n} k={k} offered_qps={qps} requests={count} connections={}",
        cfg.connections
    ));

    let schedule = poisson_schedule(cfg.seed, qps, count);
    let (run, cpu_s, rss_mb) = drive(&mut out, &server, &stream, &schedule, (cfg.connections, 1))?;
    server.stop()?;

    let by_op = latencies(&stream, &run);
    common_metrics(&mut out, setup_s, rss_mb, cpu_s, &run);
    report_class(&mut out, &by_op, OpClass::Core, "core");
    report_class(&mut out, &by_op, OpClass::Best, "best");

    // Output check: the same requests, answered in process on the same
    // static epoch, must match every reply.
    let timeline = LiveTimeline::new(served_initial());
    let epoch = timeline.current();
    let stats = ServiceStats::default();
    let mut memo: HashMap<String, Result<Response, String>> = HashMap::new();
    let mut mismatches = 0usize;
    let mut first = None;
    for (i, (req, fate)) in stream.iter().zip(&run.fates).enumerate() {
        if let Fate::Answered { reply, .. } = fate {
            let want =
                memo.entry(format!("{req:?}")).or_insert_with(|| execute(req, &epoch, 1, &stats));
            if want.as_ref() != Ok(reply) {
                mismatches += 1;
                first.get_or_insert(i);
            }
        }
    }
    out.check(
        "every reply matches the in-process replay",
        if mismatches == 0 {
            Ok(())
        } else {
            Err(format!("{mismatches} replies differ, first at request {}", first.unwrap_or(0)))
        },
    );

    if cfg.trace {
        let mut tracer = Tracer::default();
        // The server's own defaults: two workers, FIFO.
        let fresh = || {
            Service::start(Arc::new(LiveTimeline::new(served_initial())), ServiceConfig::default())
        };
        let service = fresh();
        let probes = probe_pipeline(&mut tracer, &stream, &service, None);
        service.shutdown();
        let service = fresh();
        let queue = loaded_queue_us(&service, &stream, &schedule);
        service.shutdown();
        layer_metrics(&mut out, &tracer, &probes, &queue?, &by_op[&OpClass::Core], &run);
        out.tracer = Some(tracer);
    }
    Ok(out)
}

/// `serve-write`: the served dataset's own churn replayed as small
/// timestamped `INGEST`s beside CORE and SPECTRUM reads.
pub fn serve_write(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (server, setup_s) = start_server(&cfg.server)?;
    let mut probe = Probe::connect(&server.addr, Duration::from_secs(5))?;
    let (n, m) = info(&mut probe)?;
    let (_, shells) = spectrum(&mut probe)?;
    drop(probe);

    let qps = cfg.qps.unwrap_or(WRITE_QPS);
    let count = (qps * cfg.seconds as f64) as usize / 2 * 2;
    let (initial, stream) = write_plan(cfg.seed, n, count)?;
    out.check(
        "the local churn stream starts from the served graph",
        if initial.num_edges() == m && CoreSpectrum::of(&initial).shells() == shells.as_slice() {
            Ok(())
        } else {
            Err(format!("served m={m}, local m={}", initial.num_edges()))
        },
    );
    let writes = stream.iter().filter(|r| matches!(r, Request::Ingest { .. })).count();
    out.report(format!(
        "serve-write: n={n} offered_qps={qps} requests={count} ingests={writes} lag={LAG} \
         connections={}",
        cfg.connections
    ));

    // One arrival per (INGEST, read) pair; both go out at that instant
    // on one connection.
    let schedule: Vec<f64> =
        poisson_schedule(cfg.seed, qps / 2.0, count / 2).into_iter().flat_map(|t| [t, t]).collect();
    let (run, cpu_s, rss_mb) = drive(&mut out, &server, &stream, &schedule, (cfg.connections, 2))?;
    let mut probe = Probe::connect(&server.addr, Duration::from_secs(5))?;
    let (final_t, final_shells) = spectrum(&mut probe)?;
    drop(probe);
    server.stop()?;

    let by_op = latencies(&stream, &run);
    common_metrics(&mut out, setup_s, rss_mb, cpu_s, &run);
    report_class(&mut out, &by_op, OpClass::Core, "core");
    report_class(&mut out, &by_op, OpClass::Ingest, "ingest");

    // Every receipt accounts for every event its INGEST carried.
    let mut unaccounted = 0usize;
    let mut kept: Vec<(u64, usize)> = Vec::new(); // (ts, request index)
    let (mut accepted, mut folded, mut rejected) = (0u64, 0u64, 0u64);
    for (i, (req, fate)) in stream.iter().zip(&run.fates).enumerate() {
        let Request::Ingest { ts, insertions, deletions } = req else { continue };
        let events = (insertions.len() + deletions.len()) as u64;
        match fate {
            Fate::Answered {
                reply: Response::Ingest { accepted: a, folded: f, rejected: r, .. },
                ..
            } if a + f + r == events => {
                accepted += a;
                folded += f;
                rejected += r;
                if *r == 0 {
                    kept.push((*ts, i));
                }
            }
            _ => unaccounted += 1,
        }
    }
    out.report(format!("receipts: accepted={accepted} folded={folded} rejected={rejected}"));
    out.check(
        "every INGEST receipt accounts for its events",
        if unaccounted == 0 { Ok(()) } else { Err(format!("{unaccounted} INGESTs unaccounted")) },
    );

    // The served end state equals an in-process Admission replay of the
    // admitted writes in timestamp order.
    kept.sort_unstable();
    let timeline = Arc::new(LiveTimeline::new(initial));
    let admission = Admission::new(Arc::clone(&timeline), LAG);
    for &(ts, i) in &kept {
        admission.ingest(ts, &events_of(&stream[i])).map_err(|e| format!("replay: {e}"))?;
    }
    let replayed = timeline.current();
    out.check(
        "final SPECTRUM equals the in-order Admission replay",
        if replayed.t == final_t && replayed.shells == final_shells {
            Ok(())
        } else {
            Err(format!(
                "served t={final_t} {final_shells:?}, replay t={} {:?}",
                replayed.t, replayed.shells
            ))
        },
    );

    // Visibility: from an INGEST's scheduled send to the first read
    // reply whose epoch includes it. Bucket `ts` publishes as epoch
    // 1 + (its rank among admitted stamps).
    let mut reads: Vec<(f64, usize)> = run
        .fates
        .iter()
        .filter_map(|fate| match fate {
            Fate::Answered {
                at_us,
                reply: Response::Core { t, .. } | Response::Spectrum { t, .. },
                ..
            } => Some((*at_us, *t)),
            _ => None,
        })
        .collect();
    reads.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut high = 0usize;
    let reached: Vec<(f64, usize)> = reads
        .into_iter()
        .map(|(at, t)| {
            high = high.max(t);
            (at, high)
        })
        .collect();
    let mut visible = Vec::new();
    for (rank, &(_, i)) in kept.iter().enumerate() {
        let epoch = rank + 2;
        let first = reached.partition_point(|&(_, t)| t < epoch);
        if let Some(&(at, _)) = reached.get(first) {
            visible.push((at - schedule[i] * 1e6) / 1e3);
        }
    }
    let visible = Samples::new(visible);
    out.report(format!(
        "visible_p99_ms = {} (n={}, {} admitted writes never seen by a read)",
        visible.pct(99.0).map_or("-".into(), |v| format!("{v:.2} ms")),
        visible.len(),
        kept.len() - visible.len()
    ));

    if cfg.trace {
        let mut tracer = Tracer::default();
        let timeline = Arc::new(LiveTimeline::new(served_initial()));
        let admission = Arc::new(Admission::new(Arc::clone(&timeline), LAG));
        let service = Service::start_with_admission(timeline, admission, ServiceConfig::default());
        let direct = Arc::new(LiveTimeline::new(served_initial()));
        let direct_adm = Admission::new(Arc::clone(&direct), LAG);
        let probes = probe_pipeline(&mut tracer, &stream, &service, Some(&direct_adm));
        service.shutdown();
        probe_write_path(&mut tracer, &direct, &probes.publishes);
        let timeline = Arc::new(LiveTimeline::new(served_initial()));
        let admission = Arc::new(Admission::new(Arc::clone(&timeline), LAG));
        let service = Service::start_with_admission(timeline, admission, ServiceConfig::default());
        let queue = loaded_queue_us(&service, &stream, &schedule);
        service.shutdown();
        layer_metrics(&mut out, &tracer, &probes, &queue?, &by_op[&OpClass::Core], &run);
        out.tracer = Some(tracer);
    }
    Ok(out)
}

/// The initial graph and the write stream for `count` requests, growing
/// the churn script until it holds enough events.
fn write_plan(seed: u64, n: usize, count: usize) -> Result<(Graph, Vec<Request>), String> {
    let mut snapshots = 64;
    loop {
        let stream = Dataset::Deezer.load_or_generate(SCALE, snapshots, DATASET_SEED);
        match write_stream(seed, n, stream.batches(), count, WRITE_SHAPE) {
            Ok(requests) => return Ok((stream.initial().clone(), requests)),
            Err(e) if snapshots >= 1 << 14 => return Err(e),
            Err(_) => snapshots *= 2,
        }
    }
}

fn events_of(req: &Request) -> Vec<IngestEvent> {
    match req {
        Request::Ingest { insertions, deletions, .. } => insertions
            .iter()
            .map(|&(u, v)| IngestEvent { insert: true, u, v })
            .chain(deletions.iter().map(|&(u, v)| IngestEvent { insert: false, u, v }))
            .collect(),
        _ => Vec::new(),
    }
}

/// What the in-process request probes saw, beyond the spans.
#[derive(Debug, Default)]
struct ProbeCounts {
    /// Counters of the BEST solves.
    solver: SolverCounts,
    /// Admission receipts summed: accepted, folded, rejected.
    receipts: [u64; 3],
    /// `INGEST` calls probed.
    ingests: u64,
    /// Admission span id of each published batch, in publish order.
    publishes: Vec<u64>,
}

/// Push the first [`PROBE_REQUESTS`] of `stream` through each layer's
/// public calls in process: the connection state machine, the binary
/// codec, the service's query path and `execute`, and the core calls
/// behind FOLLOWERS, ANCHORED and BEST. `INGEST`s also go through a
/// second, directly called `Admission` (`direct`), so admission time is
/// measured on its own.
fn probe_pipeline(
    tracer: &mut Tracer,
    stream: &[Request],
    service: &Service,
    direct: Option<&Admission>,
) -> ProbeCounts {
    let mut counts = ProbeCounts::default();
    let stats = ServiceStats::default();
    let mut conn = Conn::new();
    for (i, req) in stream.iter().take(PROBE_REQUESTS).enumerate() {
        let trace = i as u64;
        let [decode, encode, exec] = span_names(req.op_class());
        let mut frame = Vec::new();
        BINARY.encode_request(trace, req, &mut frame);

        let (ingested, conn_in, _) =
            tracer.time(trace, None, "conn", "ingest", || conn.ingest(&frame));
        let seq = match ingested {
            Ok(got) if got.queries.len() == 1 => got.queries[0].0,
            other => panic!("conn did not yield the probe request: {other:?}"),
        };
        tracer.time(trace, Some(conn_in), "binary", decode, || BINARY.decode_request(&frame));

        let (reply, query_id, _) =
            tracer.time(trace, None, "executor", "query", || service.query(req.clone()));
        if let (Request::Ingest { ts, .. }, Some(adm)) = (req, direct) {
            let before = adm.timeline().epochs_published();
            let (receipt, adm_id, _) =
                tracer.time(trace, Some(query_id), "admission", "ingest", || {
                    adm.ingest(*ts, &events_of(req))
                });
            let receipt = receipt.expect("probe admission is never replaying");
            counts.receipts[0] += receipt.accepted;
            counts.receipts[1] += receipt.folded;
            counts.receipts[2] += receipt.rejected;
            counts.ingests += 1;
            let published = adm.timeline().epochs_published() - before;
            counts.publishes.extend(std::iter::repeat_n(adm_id, published as usize));
        } else {
            let epoch = service.timeline().current();
            let epochs = service.timeline().epochs_published();
            let (_, exec_id, _) = tracer.time(trace, Some(query_id), "executor", exec, || {
                execute(req, &epoch, epochs, &stats)
            });
            probe_core(tracer, trace, exec_id, req, &epoch.frame, &mut counts);
        }

        let complete_id = tracer.reserve();
        let mut bytes = Vec::new();
        tracer.time(trace, Some(complete_id), "binary", encode, || {
            BINARY.encode_response(trace, &reply, &mut bytes)
        });
        let start = Instant::now();
        let _ = conn.complete(seq, reply);
        tracer.record_as(complete_id, trace, None, "conn", "complete", start, Instant::now());
        let pending = conn.pending_write().len();
        conn.advance_write(pending);
    }
    counts
}

/// Executor queue wait under the workload's own load: the first
/// [`LOADED_REQUESTS`] requests of `schedule` are submitted to `service`
/// with `try_submit_traced` at their scheduled instants, as the server's
/// event loop submits them, so cheap jobs wait behind BEST or INGEST jobs
/// already queued. Each request's lifecycle span opens at its submit;
/// the worker charges the time to its dequeue to the span's queue stage
/// (a `Full` handback keeps the span, so waiting to get in counts too).
/// Returns the queue waits in µs by request class.
fn loaded_queue_us(
    service: &Service,
    stream: &[Request],
    schedule: &[f64],
) -> Result<BTreeMap<OpClass, Samples>, String> {
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let mut submitted = 0usize;
    for (req, &at) in stream.iter().zip(schedule).take(LOADED_REQUESTS) {
        std::thread::sleep(
            (start + Duration::from_secs_f64(at)).saturating_duration_since(Instant::now()),
        );
        let span = LifeSpan::begin("probe");
        let (tx, mine, op) = (tx.clone(), span.clone(), req.op_class());
        let mut job: (Request, avt_serve::QueryCallback) = (
            req.clone(),
            Box::new(move |reply| {
                let _ = tx.send((op, reply.is_ok(), mine.finish().stage(Stage::Queue)));
            }),
        );
        loop {
            match service.try_submit_traced(job.0, Some(span.clone()), job.1) {
                Ok(()) => break,
                Err(SubmitError::Full(req, done)) => {
                    job = (req, done);
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(SubmitError::Closed(..)) => return Err("loaded replay: service closed".into()),
            }
        }
        submitted += 1;
    }
    let mut by_op: BTreeMap<OpClass, Vec<f64>> = BTreeMap::new();
    for _ in 0..submitted {
        let (op, ok, queue_ns) =
            rx.recv_timeout(GRACE).map_err(|_| "loaded replay: a reply never came".to_string())?;
        if !ok {
            return Err(format!("loaded replay: a {op:?} request failed"));
        }
        by_op.entry(op).or_default().push(queue_ns as f64 / 1e3);
    }
    Ok(by_op.into_iter().map(|(op, v)| (op, Samples::new(v))).collect())
}

/// Time the `core` call behind one query.
fn probe_core(
    tracer: &mut Tracer,
    trace: u64,
    parent: u64,
    req: &Request,
    frame: &CsrGraph,
    counts: &mut ProbeCounts,
) {
    match req {
        Request::Followers { k, anchor } => {
            tracer.time(trace, Some(parent), "core", "followers", || {
                AnchoredCoreState::new(frame, *k).followers_of(*anchor)
            });
        }
        Request::Anchored { k, anchors } => {
            tracer.time(trace, Some(parent), "core", "anchored", || {
                let mut unique = anchors.clone();
                unique.sort_unstable();
                unique.dedup();
                let state = AnchoredCoreState::with_anchors(frame, *k, &unique);
                state.anchored_core_size()
            });
        }
        Request::Best { k, b, algo } => {
            let params = AvtParams::new(*k, *b);
            let (name, report) = match algo {
                BestAlgo::Greedy => {
                    let (r, _, _) =
                        tracer.time(trace, Some(parent), "core", "greedy_solve", || {
                            Greedy::default().solve_snapshot(1, frame, params)
                        });
                    ("greedy", r)
                }
                BestAlgo::Olak => {
                    let (r, _, _) = tracer.time(trace, Some(parent), "core", "olak_solve", || {
                        Olak.solve_snapshot(1, frame, params)
                    });
                    ("olak", r)
                }
            };
            counts.solver.add(name, &report);
        }
        _ => {}
    }
}

/// Replay the batches `direct` published through the write path's three
/// layers in lockstep: `LiveTimeline::apply_batch` (the publish),
/// `CsrGraph::apply_batch` and `MaintainedCore::apply_batch_timed`. The
/// graph and kcore spans are children of the publish span (the same work
/// done again), so the timeline's self time is publish minus both; each
/// publish is in turn a child of the `INGEST` admission span that caused
/// it.
fn probe_write_path(tracer: &mut Tracer, direct: &LiveTimeline, parents: &[u64]) {
    let history = direct.freeze();
    let initial = history.initial().clone();
    let timeline = LiveTimeline::new(initial.clone());
    let mut frame = CsrGraph::from_graph(&initial);
    let mut maintained = MaintainedCore::new(initial);
    for (i, batch) in history.batches().iter().enumerate() {
        let trace = 1_000_000 + i as u64;
        let parent = parents.get(i).copied();
        let (_, publish, _) = tracer.time(trace, parent, "timeline", "publish", || {
            timeline.apply_batch(batch.clone()).expect("replayed batch applies")
        });
        let (next, _, _) = tracer.time(trace, Some(publish), "graph", "apply_batch", || {
            frame.apply_batch(batch).expect("replayed batch applies")
        });
        frame = next;
        let before = maintained.visited_vertices();
        tracer.time(trace, Some(publish), "kcore", "maintain", || {
            maintained.apply_batch_timed(batch).expect("replayed batch applies")
        });
        tracer.count("kcore.maintain_visited", (maintained.visited_vertices() - before) as f64);
    }
}

/// Span names per verb: the codec's decode and encode, and `execute`.
/// (`INGEST` never reaches `execute`; its worker-side call is the
/// admission span.)
fn span_names(op: OpClass) -> [&'static str; 3] {
    match op {
        OpClass::Core => ["decode.core", "encode.core", "execute.core"],
        OpClass::Spectrum => ["decode.spectrum", "encode.spectrum", "execute.spectrum"],
        OpClass::Followers => ["decode.followers", "encode.followers", "execute.followers"],
        OpClass::Anchored => ["decode.anchored", "encode.anchored", "execute.anchored"],
        OpClass::Best => ["decode.best", "encode.best", "execute.best"],
        OpClass::Ingest => ["decode.ingest", "encode.ingest", "execute.ingest"],
        _ => ["decode.other", "encode.other", "execute.other"],
    }
}

/// The per-layer metrics of a serve workload's traced run.
fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    probes: &ProbeCounts,
    queue: &BTreeMap<OpClass, Samples>,
    client_core: &Samples,
    run: &OpenLoop,
) {
    let med = |layer: &str, name: &str| median(&tracer.durations_us(layer, name)).unwrap_or(0.0);
    let m = &mut out.layers;
    // executor.execute_us.ingest is the admission call the worker makes.
    for op in ["core", "spectrum", "followers", "anchored", "best"] {
        m.insert(format!("executor.execute_us.{op}"), med("executor", &format!("execute.{op}")));
    }
    m.insert("executor.execute_us.ingest".into(), med("admission", "ingest"));
    // Queue wait is a tail effect: CORE's p99 under load, the share of
    // core_p99_us spent waiting for a worker.
    let empty = Samples::default();
    let core_queue = queue.get(&OpClass::Core).unwrap_or(&empty);
    let queue_p99 = core_queue.pct(99.0);
    m.insert("executor.queue_us".into(), queue_p99.unwrap_or(0.0));
    for op in ["core", "spectrum", "followers", "anchored", "best", "ingest"] {
        m.insert(format!("binary.decode_us.{op}"), med("binary", &format!("decode.{op}")));
        m.insert(format!("binary.encode_us.{op}"), med("binary", &format!("encode.{op}")));
    }
    m.insert("conn.ingest_us".into(), med("conn", "ingest"));
    m.insert("conn.complete_us".into(), med("conn", "complete"));
    m.insert("core.followers_us".into(), med("core", "followers"));
    m.insert("core.anchored_us".into(), med("core", "anchored"));
    probes.solver.metrics(m, tracer);

    m.insert("admission.ingest_us".into(), med("admission", "ingest"));
    m.insert("admission.accepted".into(), probes.receipts[0] as f64);
    m.insert("admission.folded".into(), probes.receipts[1] as f64);
    m.insert("admission.rejected".into(), probes.receipts[2] as f64);
    m.insert(
        "admission.publishes_per_ingest".into(),
        if probes.ingests == 0 {
            0.0
        } else {
            probes.publishes.len() as f64 / probes.ingests as f64
        },
    );
    m.insert("timeline.publish_us".into(), med("timeline", "publish"));
    m.insert("graph.apply_batch_us".into(), med("graph", "apply_batch"));
    m.insert("kcore.maintain_us".into(), med("kcore", "maintain"));
    m.insert("kcore.maintain_visited".into(), tracer.count_mean("kcore.maintain_visited"));
    let publish = tracer.durations_us("timeline", "publish");
    let graph = tracer.durations_us("graph", "apply_batch");
    let kcore = tracer.durations_us("kcore", "maintain");
    let selfs: Vec<f64> =
        publish.iter().zip(&graph).zip(&kcore).map(|((p, g), k)| p - g - k).collect();
    m.insert("timeline.self_us".into(), median(&selfs).unwrap_or(0.0));

    // The wire residual: client-seen CORE latency minus what the server
    // layers spend on a CORE — execute plus the conn calls (which
    // include decode and encode).
    let server_side =
        med("executor", "execute.core") + med("conn", "ingest") + med("conn", "complete");
    let residual = client_core.pct(50.0).map_or(0.0, |c| c - server_side);
    m.insert("wire.residual_us".into(), residual);
    m.insert(
        "client.late_p99_us".into(),
        Samples::new(run.late_us.clone()).pct(99.0).unwrap_or(0.0),
    );
    for (op, waits) in queue {
        out.report(format!("executor queue wait under load, {op:?}: {}", waits.describe("us")));
    }
    out.report(format!(
        "wire: client CORE p50 {} us, server-side CORE {server_side:.1} us, residual {residual:.1} us",
        client_core.pct(50.0).map_or("-".into(), |v| format!("{v:.1}"))
    ));
    if queue_p99.is_none() {
        out.check(
            "executor.queue_us has ten samples beyond it",
            Err(format!("only {} CORE queue waits", core_queue.len())),
        );
    }
}
