//! Query execution: requests in, epoch-consistent answers out.
//!
//! [`execute`] answers one [`Request`] against one published
//! [`EpochFrame`] — pure with respect to the timeline, so it is trivially
//! safe to run from many threads against the same epoch. [`Service`] puts
//! a bounded worker pool in front of it: queries queue on a
//! [`std::sync::mpsc::sync_channel`] (callers feel backpressure instead of
//! the pool growing unboundedly), each worker grabs the *current* epoch at
//! dequeue time, and per-query visited/probed counters plus executor
//! latency flow into [`ServiceStats`].
//!
//! The cheap queries (`CORE`, `SPECTRUM`, `INFO`, `STATS`) read only what
//! the epoch published — the core array and its shell histogram, no
//! decomposition and nothing proportional to `n`. The first three cost
//! less than a trip through the pool, so the network fronts answer them
//! on their own thread with [`Service::answer_inline`]. The expensive
//! ones (`ANCHORED`, `FOLLOWERS`, `BEST`) run the same
//! [`AnchoredCoreState`] / [`SnapshotSolver`] machinery the offline
//! experiments use, on the frozen frame — which is exactly what makes the
//! service-vs-offline equivalence tests possible. A `BEST` answer depends
//! only on the epoch and `(k, b, algo)`, so the service computes each
//! once per epoch ([`BestMemo`]) and hands every identical request the
//! same reply.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

use avt_core::{AnchoredCoreState, AvtParams, Greedy, Olak, SnapshotSolver};

use avt_obs::{Span, Stage};

use crate::admission::{Admission, IngestEvent};
use crate::protocol::{BestAlgo, OpClass, Request, Response};
use crate::sched::{sched_mode, CostModel, LanePool, PushError, SchedMode};
use crate::stats::ServiceStats;
use crate::timeline::{EpochFrame, LiveTimeline};

/// Validate a vertex id against the epoch's vertex set.
fn check_vertex(epoch: &EpochFrame, v: avt_graph::VertexId) -> Result<(), String> {
    let n = epoch.frame.num_vertices();
    if (v as usize) < n {
        Ok(())
    } else {
        Err(format!("vertex {v} out of range (n = {n})"))
    }
}

fn check_k(k: u32) -> Result<(), String> {
    if k >= 1 {
        Ok(())
    } else {
        Err("k must be at least 1".into())
    }
}

fn sorted(mut v: Vec<avt_graph::VertexId>) -> Vec<avt_graph::VertexId> {
    v.sort_unstable();
    v
}

/// Answer `request` against `epoch`.
///
/// `epochs` and `stats` feed the `INFO`/`STATS` responses; they describe
/// the service, not the epoch. Pure otherwise: no locks, no timeline
/// access, deterministic per epoch — two readers asking the same question
/// of the same epoch get bit-identical answers, which is the contract the
/// equivalence proptests pin.
pub fn execute(
    request: &Request,
    epoch: &EpochFrame,
    epochs: u64,
    stats: &ServiceStats,
) -> Result<Response, String> {
    let frame = epoch.frame.as_ref();
    match request {
        // Everything in an INFO reply describes the answered epoch — the
        // epoch count is `t` as of its publication, not a racy read of the
        // live counter, so `t == epochs` holds in every reply even while
        // the writer advances mid-query.
        Request::Info => Ok(Response::Info {
            t: epoch.t,
            n: frame.num_vertices(),
            m: frame.num_edges(),
            epochs: epoch.t as u64,
        }),
        // The histogram was derived once at publication; answering is a
        // copy of O(degeneracy) counters.
        Request::Spectrum => Ok(Response::Spectrum { t: epoch.t, shells: epoch.shells.clone() }),
        Request::Core(v) => {
            check_vertex(epoch, *v)?;
            Ok(Response::Core { t: epoch.t, v: *v, core: epoch.core(*v) })
        }
        Request::Anchored { k, anchors } => {
            check_k(*k)?;
            for &a in anchors {
                check_vertex(epoch, a)?;
            }
            let mut unique = anchors.clone();
            unique.sort_unstable();
            unique.dedup();
            let state = AnchoredCoreState::with_anchors(frame, *k, &unique);
            Ok(Response::Anchored {
                t: epoch.t,
                k: *k,
                size: state.anchored_core_size(),
                followers: sorted(state.committed_followers(&epoch.cores)),
            })
        }
        Request::Followers { k, anchor } => {
            check_k(*k)?;
            check_vertex(epoch, *anchor)?;
            let mut state = AnchoredCoreState::new(frame, *k);
            Ok(Response::Followers {
                t: epoch.t,
                k: *k,
                anchor: *anchor,
                followers: sorted(state.followers_of(*anchor)),
            })
        }
        Request::Best { k, b, algo } => {
            check_k(*k)?;
            let params = AvtParams::new(*k, *b);
            let report = match algo {
                BestAlgo::Greedy => Greedy::default().solve_snapshot(epoch.t, frame, params),
                BestAlgo::Olak => Olak.solve_snapshot(epoch.t, frame, params),
            };
            Ok(Response::Best {
                t: epoch.t,
                k: *k,
                algo: *algo,
                anchors: report.anchors,
                followers: sorted(report.followers),
                visited: report.metrics.vertices_visited,
                probed: report.metrics.candidates_probed,
            })
        }
        Request::Stats => Ok(Response::Stats {
            epochs,
            served: stats.served(),
            errors: stats.errors(),
            p50_us: stats.latency.percentile(50.0),
            p99_us: stats.latency.percentile(99.0),
            per_op: stats.per_op_latencies(),
            // The writer block belongs to the admission buffer, not the
            // epoch; [`Service`] fills it in when one is attached. The
            // scheduler block likewise belongs to the lane pool.
            writer: None,
            sched: None,
        }),
        // Writes go through the admission buffer, which only a
        // [`Service::start_with_admission`] service has — `execute` itself
        // is pure with respect to the timeline and must stay so.
        Request::Ingest { .. } => Err("ingest not enabled on this service".into()),
        // The telemetry verbs read process-wide observability state (the
        // registry and the flight recorder), not the epoch — they answer
        // in every mode; with `AVT_OBS=off` the registry is simply empty.
        Request::Metrics => Ok(Response::Metrics { text: crate::obs::render() }),
        Request::Trace { n } => Ok(Response::Trace { entries: crate::obs::trace(*n as usize) }),
    }
}

/// Most distinct `(k, b, algo)` answers [`BestMemo`] keeps per epoch;
/// requests past it are computed without being kept.
const BEST_MEMO_SLOTS: usize = 16;

type BestKey = (u32, usize, BestAlgo);
type BestCell = Arc<OnceLock<Result<Response, String>>>;

/// `BEST` answers of the newest epoch seen, computed once each.
///
/// The first request for a key computes it; identical requests that
/// arrive meanwhile wait on the same cell instead of running the solver
/// again, and later ones copy the stored reply. The replies are the ones
/// [`execute`] gives, since it is deterministic per epoch. A newer epoch
/// empties the memo; a request still reading an older one bypasses it.
#[derive(Default)]
struct BestMemo {
    epoch: Mutex<(usize, Vec<(BestKey, BestCell)>)>,
}

impl BestMemo {
    /// `compute()`'s answer for `key` at epoch `t`, computed at most once
    /// per epoch while the key has a slot.
    fn answer(
        &self,
        t: usize,
        key: BestKey,
        compute: impl FnOnce() -> Result<Response, String>,
    ) -> Result<Response, String> {
        let cell = {
            let mut guard = self.epoch.lock().expect("best memo lock");
            let (at, cells) = &mut *guard;
            if t > *at {
                *at = t;
                cells.clear();
            }
            if t < *at {
                None
            } else if let Some((_, cell)) = cells.iter().find(|(k, _)| *k == key) {
                Some(Arc::clone(cell))
            } else if cells.len() < BEST_MEMO_SLOTS {
                let cell = BestCell::default();
                cells.push((key, Arc::clone(&cell)));
                Some(cell)
            } else {
                None
            }
        };
        match cell {
            // The lock is released: other keys proceed while this one
            // computes.
            Some(cell) => cell.get_or_init(compute).clone(),
            None => compute(),
        }
    }
}

/// One worker-side dispatch: `INGEST` goes to the admission buffer (when
/// the service has one), `BEST` through the memo, everything else to
/// [`execute`] against the current epoch — with `STATS` replies enriched
/// by the writer counters.
fn run_job(
    request: &Request,
    timeline: &Arc<LiveTimeline>,
    admission: Option<&Admission>,
    stats: &ServiceStats,
    best: &BestMemo,
    span: Option<&Span>,
) -> Result<Response, String> {
    if let Request::Ingest { ts, insertions, deletions } = request {
        let Some(adm) = admission else {
            return Err("ingest not enabled on this service".into());
        };
        let mut events: Vec<IngestEvent> = Vec::with_capacity(insertions.len() + deletions.len());
        events.extend(insertions.iter().map(|&(u, v)| IngestEvent { insert: true, u, v }));
        events.extend(deletions.iter().map(|&(u, v)| IngestEvent { insert: false, u, v }));
        return adm
            .ingest_traced(*ts, &events, span)
            .map(|r| Response::Ingest {
                t: r.t,
                accepted: r.accepted,
                folded: r.folded,
                rejected: r.rejected,
                watermark: r.watermark,
            })
            .map_err(|e| e.to_string());
    }
    let epoch = timeline.current();
    let run = || execute(request, &epoch, timeline.epochs_published(), stats);
    let mut reply = match *request {
        Request::Best { k, b, algo } => best.answer(epoch.t, (k, b, algo), run),
        _ => run(),
    };
    if let (Ok(Response::Stats { writer, .. }), Some(adm)) = (&mut reply, admission) {
        *writer = Some(adm.snapshot());
    }
    reply
}

/// One job's service, the same on a pool worker and on a front end's
/// thread ([`Service::answer_inline`]): charge the wait since the last
/// span mark to `queue`, run the job, charge `execute`, and record the
/// outcome in [`ServiceStats`] and the telemetry registry. Returns the
/// reply and its pure service time in µs.
fn serve_job(
    request: &Request,
    span: Option<&Span>,
    timeline: &Arc<LiveTimeline>,
    admission: Option<&Admission>,
    stats: &ServiceStats,
    best: &BestMemo,
) -> (Result<Response, String>, u64) {
    let op = request.op_class();
    if let Some(span) = span {
        span.mark(Stage::Queue);
    }
    let start = Instant::now();
    let reply = run_job(request, timeline, admission, stats, best, span);
    // Pure service time: the queue wait was charged to the span above,
    // so the lanes cost model learns how long work *runs*, not how long
    // it sat behind other work.
    let micros = start.elapsed().as_micros() as u64;
    if let Some(span) = span {
        span.mark(Stage::Execute);
    }
    stats.record(op, reply.is_ok(), micros);
    crate::obs::note_request(op, reply.is_ok(), micros);
    (reply, micros)
}

/// Configuration of the [`Service`] worker pool.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing queries (≥ 1).
    pub workers: usize,
    /// Queued (accepted, unstarted) queries before callers block.
    pub queue_depth: usize,
    /// Which executor runs behind the pool: the single FIFO queue or the
    /// two-lane cost-aware work-stealing scheduler of [`crate::sched`].
    pub sched: SchedMode,
}

impl Default for ServiceConfig {
    /// Two workers, a queue of 32 — enough to demonstrate overlap without
    /// presuming hardware — and the scheduler the process selected
    /// (`AVT_SCHED` / [`crate::sched::set_sched_mode`], FIFO by default).
    fn default() -> Self {
        ServiceConfig { workers: 2, queue_depth: 32, sched: sched_mode() }
    }
}

/// Completion callback for [`Service::try_submit`]: invoked exactly once,
/// on a worker thread, with the query's outcome.
pub type QueryCallback = Box<dyn FnOnce(Result<Response, String>) + Send + 'static>;

/// Why [`Service::try_submit`] handed a job back instead of queuing it.
/// Both variants return the request and callback so the caller can park
/// and retry them — nothing is dropped on the floor.
pub enum SubmitError {
    /// The job queue is full; retry after a completion frees a slot.
    Full(Request, QueryCallback),
    /// The service is shutting down and accepts no further work.
    Closed(Request, QueryCallback),
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(request, _) => f.debug_tuple("Full").field(request).finish(),
            SubmitError::Closed(request, _) => f.debug_tuple("Closed").field(request).finish(),
        }
    }
}

enum Reply {
    Channel(mpsc::SyncSender<Result<Response, String>>),
    Callback(QueryCallback),
}

impl Reply {
    fn deliver(self, outcome: Result<Response, String>) {
        match self {
            // The client may have given up; that is its business, not an
            // executor fault.
            Reply::Channel(tx) => drop(tx.send(outcome)),
            Reply::Callback(done) => done(outcome),
        }
    }
}

struct Job {
    request: Request,
    reply: Reply,
    /// The request's lifecycle span, when telemetry is on and the front
    /// end opened one at decode ([`Service::try_submit_traced`]). The
    /// worker charges queue wait and execute time to it; the front end
    /// closes it after encoding the reply.
    span: Option<Span>,
}

/// A job priced by the [`CostModel`] on its way into the lane pool: the
/// submit-time estimate rides along so the worker can report the
/// estimated-vs-actual error after running it.
struct LaneJob {
    job: Job,
    op: OpClass,
    units: u64,
    est_us: u64,
}

/// Shared state of the two-lane backend.
struct LaneState {
    pool: LanePool<LaneJob>,
    model: CostModel,
}

/// The queue behind [`Service`]: the classic bounded FIFO channel
/// (default) or the two-lane work-stealing pool (`--sched lanes`).
///
/// The FIFO sender lives behind a mutexed `Option` so
/// [`Service::begin_shutdown`] can retire it from `&self` — that is what
/// makes [`SubmitError::Closed`] a deterministic, testable state instead
/// of a race against `shutdown`'s drop.
enum Backend {
    Fifo(Mutex<Option<mpsc::SyncSender<Job>>>),
    Lanes(Arc<LaneState>),
}

/// The in-process query service: a bounded worker pool over a
/// [`LiveTimeline`].
///
/// Embed it directly (`examples/live_service.rs` does) or put the TCP
/// front-end of [`crate::tcp`] in front of it. [`Service::query`] is safe
/// to call from any number of threads; each query observes the newest
/// epoch at execution time and the reply says which (`t=` in every
/// response).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use avt_graph::Graph;
/// use avt_serve::{LiveTimeline, Request, Response, Service};
///
/// let tl = Arc::new(LiveTimeline::new(Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap()));
/// let service = Service::start(Arc::clone(&tl), Default::default());
/// match service.query(Request::Core(1)).unwrap() {
///     Response::Core { core, .. } => assert_eq!(core, 1),
///     other => panic!("unexpected reply {other:?}"),
/// }
/// let report = service.shutdown();
/// assert_eq!(report.worker_panics, 0);
/// ```
pub struct Service {
    timeline: Arc<LiveTimeline>,
    admission: Option<Arc<Admission>>,
    stats: Arc<ServiceStats>,
    best: Arc<BestMemo>,
    backend: Backend,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Raised by [`Service::begin_shutdown`]; [`Service::answer_inline`]
    /// refuses work once it is set, as the closed pool does.
    closed: AtomicBool,
}

/// What [`Service::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Workers that died by panic instead of draining cleanly. Zero on a
    /// healthy service; the `avt-serve` binary turns nonzero into a
    /// nonzero exit code.
    pub worker_panics: usize,
}

impl Service {
    /// Spawn the worker pool and start serving (queries only — `INGEST`
    /// is rejected; use [`Service::start_with_admission`] to accept
    /// writes).
    pub fn start(timeline: Arc<LiveTimeline>, config: ServiceConfig) -> Service {
        Service::start_inner(timeline, None, config)
    }

    /// Spawn the worker pool with a write path: `INGEST` requests flow
    /// through `admission` (staged by timestamp, published on watermark
    /// advance), and `STATS` replies carry its writer counters.
    pub fn start_with_admission(
        timeline: Arc<LiveTimeline>,
        admission: Arc<Admission>,
        config: ServiceConfig,
    ) -> Service {
        Service::start_inner(timeline, Some(admission), config)
    }

    fn start_inner(
        timeline: Arc<LiveTimeline>,
        admission: Option<Arc<Admission>>,
        config: ServiceConfig,
    ) -> Service {
        let workers_n = config.workers.max(1);
        let stats = Arc::new(ServiceStats::default());
        let best = Arc::new(BestMemo::default());
        match config.sched {
            SchedMode::Fifo => {
                let (jobs, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
                let rx = Arc::new(Mutex::new(rx));
                let workers = (0..workers_n)
                    .map(|i| {
                        let rx = Arc::clone(&rx);
                        let timeline = Arc::clone(&timeline);
                        let admission = admission.clone();
                        let stats = Arc::clone(&stats);
                        let best = Arc::clone(&best);
                        std::thread::Builder::new()
                            .name(format!("avt-serve-worker-{i}"))
                            .spawn(move || loop {
                                // Hold the lock only for the dequeue;
                                // execution runs unlocked so workers
                                // overlap.
                                let job = rx.lock().expect("job queue lock poisoned").recv();
                                let Ok(job) = job else { break };
                                let (reply, _) = serve_job(
                                    &job.request,
                                    job.span.as_ref(),
                                    &timeline,
                                    admission.as_deref(),
                                    &stats,
                                    &best,
                                );
                                job.reply.deliver(reply);
                            })
                            .expect("spawning a worker thread")
                    })
                    .collect();
                Service {
                    timeline,
                    admission,
                    stats,
                    best,
                    backend: Backend::Fifo(Mutex::new(Some(jobs))),
                    workers,
                    closed: AtomicBool::new(false),
                }
            }
            SchedMode::Lanes => {
                let state = Arc::new(LaneState {
                    pool: LanePool::new(workers_n, config.queue_depth.max(1)),
                    model: CostModel::from_env(),
                });
                let workers = (0..workers_n)
                    .map(|i| {
                        let state = Arc::clone(&state);
                        let timeline = Arc::clone(&timeline);
                        let admission = admission.clone();
                        let stats = Arc::clone(&stats);
                        let best = Arc::clone(&best);
                        std::thread::Builder::new()
                            .name(format!("avt-serve-worker-{i}"))
                            .spawn(move || {
                                while let Some(popped) = state.pool.pop(i) {
                                    let LaneJob { job, op, units, est_us } = popped.item;
                                    let (mut reply, micros) = serve_job(
                                        &job.request,
                                        job.span.as_ref(),
                                        &timeline,
                                        admission.as_deref(),
                                        &stats,
                                        &best,
                                    );
                                    // Every finished job refines the model;
                                    // the next estimate is already better.
                                    state.model.observe(op, units, est_us, micros);
                                    state.pool.note_served(popped.lane);
                                    if let Ok(Response::Stats { sched, .. }) = &mut reply {
                                        *sched =
                                            Some(crate::sched::snapshot(&state.pool, &state.model));
                                    }
                                    job.reply.deliver(reply);
                                }
                            })
                            .expect("spawning a worker thread")
                    })
                    .collect();
                Service {
                    timeline,
                    admission,
                    stats,
                    best,
                    backend: Backend::Lanes(state),
                    workers,
                    closed: AtomicBool::new(false),
                }
            }
        }
    }

    /// Price `request` for the lane pool: the [`CostModel`]'s cheap
    /// predictors, computed from state the submitter can read for free —
    /// spectrum size × `b` for `BEST`, batch size × (1 + staged watermark
    /// backlog) for `INGEST`, anchor count for `ANCHORED`, 1 otherwise.
    fn price(&self, state: &LaneState, request: &Request) -> (OpClass, u64, u64) {
        let op = request.op_class();
        let units = match request {
            Request::Best { b, .. } => {
                self.timeline.current().shells.len().max(1) as u64 * (*b).max(1) as u64
            }
            Request::Ingest { insertions, deletions, .. } => {
                let batch = (insertions.len() + deletions.len()).max(1) as u64;
                let backlog = self.admission.as_deref().map_or(0, |a| a.staged_buckets() as u64);
                batch * (1 + backlog)
            }
            Request::Anchored { anchors, .. } => anchors.len().max(1) as u64,
            _ => 1,
        };
        (op, units, state.model.estimate_us(op, units))
    }

    /// Execute one query, blocking until a worker answers (or until the
    /// queue has room, when the pool is saturated — bounded backpressure
    /// by construction).
    pub fn query(&self, request: Request) -> Result<Response, String> {
        self.query_traced(request, None)
    }

    /// [`Service::query`] with a lifecycle span riding along (the
    /// blocking fronts' traced path; in-process callers just use
    /// [`Service::query`], which passes `None`).
    pub fn query_traced(&self, request: Request, span: Option<Span>) -> Result<Response, String> {
        let (tx, rx) = mpsc::sync_channel(1);
        match &self.backend {
            Backend::Fifo(intake) => {
                // Clone the sender out of the intake lock rather than
                // sending under it: a full queue must block this caller,
                // not every other submitter.
                let Some(jobs) = intake.lock().expect("intake lock poisoned").clone() else {
                    return Err("service is shutting down".to_string());
                };
                jobs.send(Job { request, reply: Reply::Channel(tx), span })
                    .map_err(|_| "service is shutting down".to_string())?;
            }
            Backend::Lanes(state) => {
                let (op, units, est_us) = self.price(state, &request);
                let lane = state.model.lane(op, units);
                let item = LaneJob {
                    job: Job { request, reply: Reply::Channel(tx), span },
                    op,
                    units,
                    est_us,
                };
                state.pool.push(lane, item).map_err(|_| "service is shutting down".to_string())?;
            }
        }
        rx.recv().map_err(|_| "worker died before answering".to_string())?
    }

    /// Submit one query without blocking: `done` runs on a worker thread
    /// when the answer is ready. This is the nonblocking front-end's path
    /// — an event loop must never sleep on a full queue, so a saturated
    /// pool hands the job straight back as [`SubmitError::Full`] for the
    /// caller to park and retry. Identical contract under both
    /// schedulers; lanes just pick a deque instead of the one channel.
    pub fn try_submit(&self, request: Request, done: QueryCallback) -> Result<(), SubmitError> {
        self.try_submit_traced(request, None, done)
    }

    /// [`Service::try_submit`] with a lifecycle span riding along: the
    /// worker charges queue wait and execute time to it, and it is
    /// returned to the callback's owner by way of the front end's span
    /// table (the span is `Arc`-backed; the caller keeps its own clone).
    /// On `Full`/`Closed` the job's span clone is simply dropped — the
    /// error carries the request and callback back unchanged, same shape
    /// as always, and the front end re-attaches its clone on retry.
    pub fn try_submit_traced(
        &self,
        request: Request,
        span: Option<Span>,
        done: QueryCallback,
    ) -> Result<(), SubmitError> {
        match &self.backend {
            Backend::Fifo(intake) => {
                let Some(jobs) = intake.lock().expect("intake lock poisoned").clone() else {
                    return Err(SubmitError::Closed(request, done));
                };
                jobs.try_send(Job { request, reply: Reply::Callback(done), span }).map_err(|e| {
                    match e {
                        mpsc::TrySendError::Full(job) => match job.reply {
                            Reply::Callback(done) => SubmitError::Full(job.request, done),
                            Reply::Channel(_) => unreachable!("submitted with a callback"),
                        },
                        mpsc::TrySendError::Disconnected(job) => match job.reply {
                            Reply::Callback(done) => SubmitError::Closed(job.request, done),
                            Reply::Channel(_) => unreachable!("submitted with a callback"),
                        },
                    }
                })
            }
            Backend::Lanes(state) => {
                let (op, units, est_us) = self.price(state, &request);
                let lane = state.model.lane(op, units);
                let item = LaneJob {
                    job: Job { request, reply: Reply::Callback(done), span },
                    op,
                    units,
                    est_us,
                };
                state.pool.try_push(lane, item).map_err(|e| {
                    let (ctor, item): (fn(_, _) -> SubmitError, _) = match e {
                        PushError::Full(item) => (SubmitError::Full, item),
                        PushError::Closed(item) => (SubmitError::Closed, item),
                    };
                    match item.job.reply {
                        Reply::Callback(done) => ctor(item.job.request, done),
                        Reply::Channel(_) => unreachable!("submitted with a callback"),
                    }
                })
            }
        }
    }

    /// Answer `request` on the calling thread, bypassing the pool: no
    /// queue, no worker wake, no completion hop. Meant for the classes
    /// that only copy published state ([`OpClass::reads_published`]),
    /// which cost less than the handoff to a worker would; the fronts
    /// call it for those. Stats, telemetry and the span's `queue` and
    /// `execute` stages are recorded exactly as a worker records them,
    /// and once [`Service::begin_shutdown`] has run it refuses with the
    /// pool's `service is shutting down` error.
    pub fn answer_inline(
        &self,
        request: &Request,
        span: Option<&Span>,
    ) -> Result<Response, String> {
        if self.closed.load(Ordering::Acquire) {
            return Err("service is shutting down".to_string());
        }
        let admission = self.admission.as_deref();
        serve_job(request, span, &self.timeline, admission, &self.stats, &self.best).0
    }

    /// The timeline this service reads.
    pub fn timeline(&self) -> &Arc<LiveTimeline> {
        &self.timeline
    }

    /// The admission buffer, when this service accepts `INGEST`.
    pub fn admission(&self) -> Option<&Arc<Admission>> {
        self.admission.as_ref()
    }

    /// Live counters (shared with the workers).
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.stats
    }

    /// Stop accepting new work without joining the workers: from here on
    /// [`Service::query`] errors and [`Service::try_submit`] returns
    /// [`SubmitError::Closed`], while already-queued jobs still drain.
    /// [`Service::shutdown`] calls this first; front-ends can call it
    /// early to quiesce intake before the final join.
    pub fn begin_shutdown(&self) {
        self.closed.store(true, Ordering::Release);
        match &self.backend {
            // Retiring the sender is the close signal: workers drain the
            // channel, then their recv() errors out.
            Backend::Fifo(intake) => drop(intake.lock().expect("intake lock poisoned").take()),
            Backend::Lanes(state) => state.pool.close(),
        }
    }

    /// Stop accepting queries, drain the queue, and join every worker.
    pub fn shutdown(self) -> ShutdownReport {
        self.begin_shutdown();
        let Service { workers, .. } = self;
        let worker_panics = workers.into_iter().map(|w| w.join()).filter(Result::is_err).count();
        ShutdownReport { worker_panics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_core::AvtAlgorithm;
    use avt_graph::{EdgeBatch, EvolvingGraph, Graph};

    /// The winged graph of the greedy tests: K4 core, two savable wings.
    fn winged() -> Graph {
        Graph::from_edges(
            10,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (4, 0),
                (4, 5),
                (5, 2),
                (5, 3),
                (6, 4),
                (7, 0),
                (7, 2),
                (7, 8),
                (8, 1),
                (9, 8),
            ],
        )
        .unwrap()
    }

    fn service() -> Service {
        Service::start(Arc::new(LiveTimeline::new(winged())), ServiceConfig::default())
    }

    #[test]
    fn info_spectrum_and_core_agree_with_the_frame() {
        let svc = service();
        let Response::Info { t, n, m, epochs } = svc.query(Request::Info).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!((t, n, m, epochs), (1, 10, 16, 1));
        let Response::Spectrum { shells, .. } = svc.query(Request::Spectrum).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!(shells.iter().sum::<usize>(), 10);
        let Response::Core { core, .. } = svc.query(Request::Core(0)).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!(core, 3);
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn best_matches_the_offline_solver() {
        let svc = service();
        let offline =
            Greedy::default().track(&EvolvingGraph::new(winged()), AvtParams::new(3, 2)).unwrap();
        let Response::Best { anchors, followers, visited, probed, .. } =
            svc.query(Request::Best { k: 3, b: 2, algo: BestAlgo::Greedy }).unwrap()
        else {
            panic!("wrong reply kind")
        };
        assert_eq!(anchors, offline.anchor_sets[0]);
        assert_eq!(followers.len(), offline.follower_counts[0]);
        let m = offline.reports[0].metrics;
        assert_eq!((visited, probed), (m.vertices_visited, m.candidates_probed));
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn anchored_and_followers_agree() {
        let svc = service();
        let Response::Followers { followers, .. } =
            svc.query(Request::Followers { k: 3, anchor: 6 }).unwrap()
        else {
            panic!("wrong reply kind")
        };
        let Response::Anchored { size, followers: committed, .. } =
            svc.query(Request::Anchored { k: 3, anchors: vec![6] }).unwrap()
        else {
            panic!("wrong reply kind")
        };
        assert_eq!(followers, committed);
        // size = base core (4) + anchor + followers.
        assert_eq!(size, 4 + 1 + followers.len());
        // Duplicate anchors collapse rather than double-count.
        let Response::Anchored { size: dup_size, .. } =
            svc.query(Request::Anchored { k: 3, anchors: vec![6, 6] }).unwrap()
        else {
            panic!("wrong reply kind")
        };
        assert_eq!(dup_size, size);
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn bad_requests_error_and_count() {
        let svc = service();
        assert!(svc.query(Request::Core(10)).unwrap_err().contains("out of range"));
        assert!(svc
            .query(Request::Followers { k: 0, anchor: 1 })
            .unwrap_err()
            .contains("at least 1"));
        assert!(svc
            .query(Request::Anchored { k: 3, anchors: vec![1, 99] })
            .unwrap_err()
            .contains("out of range"));
        let Response::Stats { served, errors, .. } = svc.query(Request::Stats).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!(errors, 3);
        assert_eq!(served, 0, "stats reads its own counters before recording itself");
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn try_submit_answers_via_callback() {
        let svc = service();
        let (tx, rx) = mpsc::channel();
        svc.try_submit(
            Request::Core(0),
            Box::new(move |reply| tx.send(reply).expect("test channel alive")),
        )
        .expect("queue has room");
        match rx.recv().expect("callback ran") {
            Ok(Response::Core { core, .. }) => assert_eq!(core, 3),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn queries_see_fresh_epochs() {
        let svc = service();
        svc.timeline().apply_batch(EdgeBatch::from_pairs([(6, 9)], [])).unwrap();
        let Response::Info { t, epochs, .. } = svc.query(Request::Info).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!((t, epochs), (2, 2));
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn concurrent_queries_against_a_moving_timeline() {
        let svc = Arc::new(service());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    for _ in 0..25 {
                        // Each answer must be internally consistent for
                        // *some* epoch: the spectrum always sums to n.
                        match svc.query(Request::Spectrum).unwrap() {
                            Response::Spectrum { shells, .. } => {
                                assert_eq!(shells.iter().sum::<usize>(), 10)
                            }
                            other => panic!("unexpected reply {other:?}"),
                        }
                        match svc.query(Request::Best { k: 3, b: 1, algo: BestAlgo::Olak }) {
                            Ok(Response::Best { .. }) => {}
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                });
            }
            let tl = Arc::clone(svc.timeline());
            scope.spawn(move || {
                let mut flip = true;
                for _ in 0..20 {
                    let batch = if flip {
                        EdgeBatch::from_pairs([(6, 9)], [])
                    } else {
                        EdgeBatch::from_pairs([], [(6, 9)])
                    };
                    tl.apply_batch(batch).unwrap();
                    flip = !flip;
                }
            });
        });
        let stats = Arc::clone(svc.stats());
        let svc = Arc::into_inner(svc).expect("all clones dropped");
        assert_eq!(svc.shutdown().worker_panics, 0);
        assert_eq!(stats.served(), 200);
        assert_eq!(stats.errors(), 0);
    }

    #[test]
    fn ingest_requires_an_admission_buffer() {
        let svc = service();
        let err = svc
            .query(Request::Ingest { ts: 1, insertions: vec![(6, 9)], deletions: vec![] })
            .unwrap_err();
        assert!(err.contains("not enabled"), "got: {err}");
        let Response::Stats { writer, .. } = svc.query(Request::Stats).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!(writer, None, "no admission, no writer block");
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn ingest_publishes_through_admission_and_shows_in_stats() {
        let tl = Arc::new(LiveTimeline::new(winged()));
        let adm = Arc::new(Admission::new(Arc::clone(&tl), 1));
        let svc = Service::start_with_admission(Arc::clone(&tl), adm, ServiceConfig::default());
        let Response::Ingest { accepted, watermark, .. } = svc
            .query(Request::Ingest { ts: 1, insertions: vec![(6, 9)], deletions: vec![] })
            .unwrap()
        else {
            panic!("wrong reply kind")
        };
        assert_eq!((accepted, watermark), (1, 1));
        // ts=3 moves the watermark past 1+lag, publishing the ts=1 bucket.
        svc.query(Request::Ingest { ts: 3, insertions: vec![(9, 5)], deletions: vec![] }).unwrap();
        assert!(tl.current().frame.has_edge(6, 9));
        let Response::Stats { writer, .. } = svc.query(Request::Stats).unwrap() else {
            panic!("wrong reply kind")
        };
        let writer = writer.expect("admission-backed service reports writer stats");
        assert_eq!(writer.batches_applied, 1);
        assert_eq!(writer.events_accepted, 2);
        assert_eq!(writer.watermark, 3);
        svc.admission().expect("attached").flush().unwrap();
        assert!(tl.current().frame.has_edge(9, 5));
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn shutdown_drains_in_flight_queries() {
        // Queries racing a shutdown must all be answered (drain, not
        // abandon): fire a burst, join the clients, then shut down and
        // check the books balance.
        let svc = service();
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..8).map(|_| scope.spawn(|| svc.query(Request::Spectrum).is_ok())).collect();
            assert!(handles.into_iter().all(|h| h.join().unwrap()));
        });
        let stats = Arc::clone(svc.stats());
        assert_eq!(svc.shutdown().worker_panics, 0);
        assert_eq!(stats.served(), 8);
    }

    fn lanes_service(workers: usize) -> Service {
        let config = ServiceConfig { workers, sched: SchedMode::Lanes, ..Default::default() };
        Service::start(Arc::new(LiveTimeline::new(winged())), config)
    }

    #[test]
    fn lanes_service_answers_mixed_traffic_and_reports_sched_stats() {
        let svc = Arc::new(lanes_service(4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    for _ in 0..10 {
                        match svc.query(Request::Core(0)).unwrap() {
                            Response::Core { core, .. } => assert_eq!(core, 3),
                            other => panic!("unexpected reply {other:?}"),
                        }
                        match svc.query(Request::Best { k: 3, b: 2, algo: BestAlgo::Greedy }) {
                            Ok(Response::Best { .. }) => {}
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                });
            }
        });
        let Response::Stats { served, errors, sched, .. } = svc.query(Request::Stats).unwrap()
        else {
            panic!("wrong reply kind")
        };
        assert_eq!((served, errors), (80, 0));
        let sched = sched.expect("the lanes backend reports scheduler state");
        // CORE is cheap by fiat and BEST (spectrum × b units) is priced
        // over the threshold on any seeded model, so both lanes worked.
        assert!(sched.cheap.served >= 40, "cheap lane served {}", sched.cheap.served);
        assert!(sched.expensive.served >= 1, "expensive lane idle: {sched:?}");
        let svc = Arc::into_inner(svc).expect("all clones dropped");
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn lanes_answers_match_fifo_for_the_same_requests() {
        let fifo = service();
        let lanes = lanes_service(3);
        let requests = [
            Request::Info,
            Request::Spectrum,
            Request::Core(4),
            Request::Anchored { k: 3, anchors: vec![6] },
            Request::Followers { k: 3, anchor: 6 },
            Request::Best { k: 3, b: 2, algo: BestAlgo::Olak },
        ];
        for request in requests {
            assert_eq!(
                fifo.query(request.clone()),
                lanes.query(request.clone()),
                "diverged on {request:?}"
            );
        }
        assert_eq!(fifo.shutdown().worker_panics, 0);
        assert_eq!(lanes.shutdown().worker_panics, 0);
    }

    #[test]
    fn begin_shutdown_hands_back_closed_under_both_schedulers() {
        for sched in [SchedMode::Fifo, SchedMode::Lanes] {
            let config = ServiceConfig { sched, ..Default::default() };
            let svc = Service::start(Arc::new(LiveTimeline::new(winged())), config);
            svc.begin_shutdown();
            assert!(
                svc.query(Request::Info).unwrap_err().contains("shutting down"),
                "{sched:?} query after close"
            );
            match svc.try_submit(Request::Core(0), Box::new(|_| {})) {
                Err(SubmitError::Closed(Request::Core(0), _)) => {}
                other => panic!("{sched:?} try_submit after close: {:?}", other.map(|_| ())),
            }
            assert_eq!(
                svc.answer_inline(&Request::Core(0), None),
                Err("service is shutting down".to_string()),
                "{sched:?} inline answer after close"
            );
            assert_eq!(svc.shutdown().worker_panics, 0, "{sched:?}");
        }
    }

    #[test]
    fn inline_answers_match_the_pool_and_are_recorded() {
        let svc = service();
        let reads = [Request::Info, Request::Spectrum, Request::Core(0), Request::Core(10)];
        for request in &reads {
            assert_eq!(svc.answer_inline(request, None), svc.query(request.clone()), "{request:?}");
        }
        let Response::Stats { served, errors, per_op, .. } = svc.query(Request::Stats).unwrap()
        else {
            panic!("wrong reply kind")
        };
        assert_eq!((served, errors), (6, 2), "each read counted once per path");
        let core = per_op.iter().find(|row| row.op == OpClass::Core).expect("core row");
        assert_eq!(core.count, 4);
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn best_memo_computes_each_key_once_per_epoch() {
        use std::sync::atomic::AtomicUsize;
        let memo = BestMemo::default();
        let runs = AtomicUsize::new(0);
        let ask = |t: usize, b: usize| {
            memo.answer(t, (3, b, BestAlgo::Greedy), || {
                runs.fetch_add(1, Ordering::Relaxed);
                Err(format!("t={t} b={b}"))
            })
        };
        assert_eq!(ask(2, 1), Err("t=2 b=1".into()));
        assert_eq!(ask(2, 1), Err("t=2 b=1".into()));
        assert_eq!(runs.load(Ordering::Relaxed), 1, "same key, same epoch: stored");
        assert_eq!(ask(2, 2), Err("t=2 b=2".into()));
        assert_eq!(runs.load(Ordering::Relaxed), 2, "another key computes");
        assert_eq!(ask(3, 1), Err("t=3 b=1".into()));
        assert_eq!(runs.load(Ordering::Relaxed), 3, "a newer epoch recomputes");
        assert_eq!(ask(2, 1), Err("t=2 b=1".into()));
        assert_eq!(ask(2, 1), Err("t=2 b=1".into()));
        assert_eq!(runs.load(Ordering::Relaxed), 5, "an older epoch bypasses the memo");
        assert_eq!(ask(3, 1), Err("t=3 b=1".into()));
        assert_eq!(runs.load(Ordering::Relaxed), 5, "...and leaves the newer one intact");
        for b in 2..=BEST_MEMO_SLOTS + 1 {
            ask(3, b).unwrap_err();
        }
        let before = runs.load(Ordering::Relaxed);
        ask(3, BEST_MEMO_SLOTS + 1).unwrap_err();
        assert_eq!(runs.load(Ordering::Relaxed), before + 1, "keys past the slots are not kept");
        ask(3, 2).unwrap_err();
        assert_eq!(runs.load(Ordering::Relaxed), before + 1, "kept keys still answer");
    }

    #[test]
    fn concurrent_identical_bests_share_one_computation() {
        use std::sync::atomic::AtomicUsize;
        let memo = BestMemo::default();
        let runs = AtomicUsize::new(0);
        let gate = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    gate.wait();
                    let reply = memo.answer(1, (2, 2, BestAlgo::Olak), || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Err("solved".into())
                    });
                    assert_eq!(reply, Err("solved".into()));
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn memoized_best_follows_the_published_epoch() {
        let svc = service();
        for algo in [BestAlgo::Greedy, BestAlgo::Olak] {
            let request = Request::Best { k: 3, b: 2, algo };
            let fresh = execute(&request, &svc.timeline().current(), 1, svc.stats());
            assert_eq!(svc.query(request.clone()), fresh, "{algo:?}");
            assert_eq!(svc.query(request), fresh, "{algo:?} again");
        }
        svc.timeline().apply_batch(EdgeBatch::from_pairs([(6, 9), (9, 4)], [])).unwrap();
        let epoch = svc.timeline().current();
        assert_eq!(epoch.t, 2);
        for algo in [BestAlgo::Greedy, BestAlgo::Olak] {
            let request = Request::Best { k: 3, b: 2, algo };
            let fresh = execute(&request, &epoch, 2, svc.stats());
            assert!(matches!(fresh, Ok(Response::Best { t: 2, .. })), "{fresh:?}");
            assert_eq!(svc.query(request), fresh, "{algo:?} after the epoch advanced");
        }
        assert_eq!(svc.shutdown().worker_panics, 0);
    }
}
