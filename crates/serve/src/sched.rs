//! The two-lane cost-aware scheduler behind [`crate::Service`].
//!
//! The default executor is one FIFO `sync_channel`: fair, simple, and
//! exactly wrong for the service's cost profile, where a `CORE` lookup
//! costs microseconds and a `BEST k b` solve costs milliseconds — one
//! heavy job head-of-line-blocks every cheap read queued behind it. This
//! module is the alternative selected by `AVT_SCHED=lanes` / `--sched
//! lanes`:
//!
//! ```text
//!                      ┌───────────────┐
//!   submit ──classify──┤   CostModel   │
//!                      └──────┬────────┘
//!              cheap (est<thr)│ expensive (est≥thr)
//!            ┌────────────────┴──┐
//!            ▼                   ▼
//!      ┌──────────┐        ┌──────────┐
//!      │ deque w0 │  ...   │ deque wN │     one deque per worker,
//!      │ deque w1 │        │          │     lanes = disjoint worker sets
//!      └────┬─────┘        └────┬─────┘
//!           │  own → same lane → other lane (stolen LAST)
//!           ▼                   ▼
//!        cheap workers      expensive workers
//! ```
//!
//! * **Classification** is an estimate, not a table: the [`CostModel`]
//!   seeds per-class rates from a `BENCH_*.json` snapshot when one is
//!   around (`--sched-bench` / `AVT_SCHED_BENCH`, else the newest of
//!   `BENCH_10.json` / `BENCH_9.json` / `BENCH_8.json` in the working
//!   directory) and refines them online from observed executor
//!   latencies, scaled by cheap predictors — spectrum size × `b` for
//!   `BEST`, batch size × watermark backlog for `INGEST`.
//!   `INFO`/`SPECTRUM`/`CORE`/`STATS`/`METRICS`/`TRACE` are cheap by
//!   fiat: they read only what the epoch (or the telemetry registry)
//!   already published.
//! * **Stealing** reuses [`avt_core::steal::StealQueues`], the same deque
//!   fabric behind the engine's `run_stealing`. A worker's victim order is
//!   its own deque, then same-lane siblings, then — last — the other
//!   lane, so an idle cheap worker only picks up a `BEST` when there is
//!   truly no cheap work anywhere, and a freshly arriving `CORE` never
//!   waits behind more than the one expensive job a cheap worker may have
//!   (reluctantly) stolen.
//!
//! Everything here is observable through `STATS` (per-lane depth, served
//! and stolen counters, the cost model's estimation-error percentiles) and
//! none of it leaks when the scheduler is off: with `AVT_SCHED=fifo` the
//! wire bytes of both codecs are identical to the previous release.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, Once};

use avt_core::steal::{StealQueues, Stolen};

use crate::protocol::{LaneStats, OpClass, SchedStats};
use crate::stats::LatencyRing;

/// Which executor runs behind [`crate::Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// The single bounded FIFO queue — the default, byte-identical wire
    /// behaviour of previous releases.
    Fifo,
    /// The two-lane cost-aware work-stealing executor of this module.
    Lanes,
}

impl SchedMode {
    /// Lowercase knob value (`fifo` / `lanes`).
    pub fn as_str(self) -> &'static str {
        match self {
            SchedMode::Fifo => "fifo",
            SchedMode::Lanes => "lanes",
        }
    }

    /// Parse a knob value (the `--sched` flag / `AVT_SCHED` variable).
    pub fn parse(value: &str) -> Option<SchedMode> {
        match value.trim() {
            "fifo" => Some(SchedMode::Fifo),
            "lanes" => Some(SchedMode::Lanes),
            _ => None,
        }
    }
}

/// Sentinel for "no process-wide override installed".
const MODE_UNSET: u8 = 0;
const MODE_FIFO: u8 = 1;
const MODE_LANES: u8 = 2;

/// Process-wide scheduler mode, settable by harnesses (the `--sched`
/// flag). `MODE_UNSET` defers to the environment.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// Install a process-wide scheduler mode for
/// [`crate::ServiceConfig::default`]; takes precedence over `AVT_SCHED`.
pub fn set_sched_mode(mode: SchedMode) {
    let v = match mode {
        SchedMode::Fifo => MODE_FIFO,
        SchedMode::Lanes => MODE_LANES,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// The scheduler mode new services default to: the [`set_sched_mode`]
/// override if installed, else `AVT_SCHED` from the environment
/// (`fifo` / `lanes`), else [`SchedMode::Fifo`]. An unrecognized
/// environment value warns once per process and falls back to FIFO —
/// silently ignoring a typo'd `AVT_SCHED=lane` would make a "lanes CI
/// pass" test nothing, the same failure mode the `AVT_ENGINE_THREADS`
/// warning exists for.
pub fn sched_mode() -> SchedMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_FIFO => return SchedMode::Fifo,
        MODE_LANES => return SchedMode::Lanes,
        _ => {}
    }
    match std::env::var("AVT_SCHED") {
        Ok(value) => SchedMode::parse(&value).unwrap_or_else(|| {
            static WARN_ONCE: Once = Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: AVT_SCHED={value:?} is not fifo or lanes; using the fifo executor"
                );
            });
            SchedMode::Fifo
        }),
        Err(_) => SchedMode::Fifo,
    }
}

/// Process-wide override for the bench snapshot the [`CostModel`] seeds
/// from (the `--sched-bench` flag). `None` defers to `AVT_SCHED_BENCH`
/// and the default candidates.
static BENCH_PATH: Mutex<Option<String>> = Mutex::new(None);

/// Install a bench-snapshot path for [`CostModel::from_env`]; takes
/// precedence over the `AVT_SCHED_BENCH` environment variable.
pub fn set_sched_bench(path: &str) {
    *BENCH_PATH.lock().expect("bench path lock poisoned") = Some(path.to_string());
}

/// The two lanes. [`Lane::Cheap`] must keep flowing whatever the
/// expensive lane is chewing on — that asymmetry is the whole scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Microsecond-scale work: published-state reads and anything the
    /// cost model estimates under its threshold.
    Cheap,
    /// Millisecond-scale work: `BEST` solves, heavy `INGEST` publishes.
    Expensive,
}

impl Lane {
    fn index(self) -> usize {
        match self {
            Lane::Cheap => 0,
            Lane::Expensive => 1,
        }
    }
}

/// Classes whose handlers only copy what the epoch already published —
/// cheap by construction, never routed through the estimate.
fn cheap_by_fiat(op: OpClass) -> bool {
    op.reads_published() || matches!(op, OpClass::Stats | OpClass::Metrics | OpClass::Trace)
}

/// Estimates above this run in the expensive lane.
const LANE_THRESHOLD_US: u64 = 200;

/// EWMA denominator for online rate refinement: `new = old + (sample -
/// old) / 8` — heavy enough to smooth per-query noise, light enough to
/// track a timeline that doubled in size within a few dozen queries.
const EWMA_SHIFT: u32 = 3;

/// Slots in the estimation-error ring (percent samples).
const ERR_RING_SLOTS: usize = 256;

/// Default nanoseconds per predictor unit, by op class, used when no
/// bench snapshot is found. Deliberately pessimistic for the heavy
/// classes: a misclassified-expensive `CORE` costs one queue hop, a
/// misclassified-cheap `BEST` costs every cheap read behind it.
const DEFAULT_RATE_NS: [u64; OpClass::COUNT] = [
    1_000,   // Info — cheap by fiat, rate only feeds the error ring
    2_000,   // Spectrum — cheap by fiat
    1_000,   // Core — cheap by fiat
    200_000, // Anchored — per anchor
    200_000, // Followers
    100_000, // Best — per (spectrum size × b) unit
    2_000,   // Stats — cheap by fiat
    20_000,  // Ingest — per (batch × (1 + backlog)) unit
    2_000,   // Metrics — cheap by fiat (registry render)
    1_000,   // Trace — cheap by fiat (flight-recorder copy)
];

/// The cost model: per-class nanoseconds-per-unit rates, seeded statically
/// and refined online.
///
/// `estimate(op, units)` prices a request before it queues; `observe`
/// folds the measured latency back into the rate (EWMA) and records the
/// relative estimation error for `STATS`. The *units* are the cheap
/// predictors computed at submit time: spectrum size × `b` for `BEST`,
/// batch size × (1 + watermark backlog) for `INGEST`, anchor count for
/// `ANCHORED`, 1 otherwise.
pub struct CostModel {
    rate_ns: [AtomicU64; OpClass::COUNT],
    err_pct: LatencyRing,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            rate_ns: std::array::from_fn(|i| AtomicU64::new(DEFAULT_RATE_NS[i])),
            err_pct: LatencyRing::with_slots(ERR_RING_SLOTS),
        }
    }
}

impl CostModel {
    /// A model seeded from the environment: the [`set_sched_bench`]
    /// override, else `$AVT_SCHED_BENCH` (trimmed), else `BENCH_10.json`
    /// / `BENCH_9.json` / `BENCH_8.json` in the working directory — first
    /// one that parses wins; none of them present means the built-in
    /// defaults (online refinement converges either way, seeding just
    /// shortens the warmup).
    ///
    /// An *explicitly named* snapshot (flag or env) that cannot be read
    /// or has no matching labels warns once per process — silently
    /// ignoring a typo'd `AVT_SCHED_BENCH` would make a "seeded" CI lane
    /// measure nothing, the same failure mode the `AVT_SCHED` warning
    /// exists for. The default candidates stay silent: their absence is
    /// the common case, not a misconfiguration.
    pub fn from_env() -> CostModel {
        let model = CostModel::default();
        let override_path = BENCH_PATH.lock().expect("bench path lock poisoned").clone();
        let env_path = std::env::var("AVT_SCHED_BENCH")
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty());
        for path in override_path.into_iter().chain(env_path) {
            match std::fs::read_to_string(&path) {
                Ok(text) if model.seed_from_snapshot(&text) => return model,
                Ok(_) => warn_bench_once(&path, "has no matching bench labels"),
                Err(_) => warn_bench_once(&path, "is unreadable"),
            }
        }
        for path in ["BENCH_10.json", "BENCH_9.json", "BENCH_8.json"] {
            if let Ok(text) = std::fs::read_to_string(path) {
                if model.seed_from_snapshot(&text) {
                    return model;
                }
            }
        }
        model
    }

    /// Fold a flat `{"group/name": nanoseconds}` bench snapshot (the
    /// format the criterion shim writes) into the seed rates. Returns
    /// whether any label matched. Labels map to classes by substring —
    /// `best`/`greedy`/`olak`/`pipeline` price `BEST`-class solver work,
    /// `writer`/`shard` the `INGEST` publish path, `anchor`/`follower`
    /// the local-search classes. A matched median is a whole-operation
    /// cost on the bench's workload; dividing by a nominal unit count
    /// turns it into a per-unit seed the predictors can scale.
    pub fn seed_from_snapshot(&self, json: &str) -> bool {
        /// Bench workloads are mid-sized; charge their median to this
        /// many predictor units when converting to a per-unit rate.
        const NOMINAL_UNITS: u64 = 16;
        let mut sums = [0u128; OpClass::COUNT];
        let mut counts = [0u64; OpClass::COUNT];
        for (label, ns) in parse_flat_json(json) {
            let lower = label.to_ascii_lowercase();
            let op = if lower.contains("anchor") || lower.contains("follower") {
                Some(OpClass::Anchored)
            } else if ["best", "greedy", "olak", "pipeline"].iter().any(|k| lower.contains(k)) {
                Some(OpClass::Best)
            } else if lower.contains("writer") || lower.contains("shard") {
                Some(OpClass::Ingest)
            } else {
                None
            };
            if let Some(op) = op {
                sums[op.index()] += ns as u128;
                counts[op.index()] += 1;
            }
        }
        let mut any = false;
        for op in [OpClass::Anchored, OpClass::Best, OpClass::Ingest] {
            let i = op.index();
            if counts[i] > 0 {
                let mean_ns = (sums[i] / counts[i] as u128) as u64;
                let rate = (mean_ns / NOMINAL_UNITS).max(1);
                self.rate_ns[i].store(rate, Ordering::Relaxed);
                if op == OpClass::Anchored {
                    self.rate_ns[OpClass::Followers.index()].store(rate, Ordering::Relaxed);
                }
                any = true;
            }
        }
        any
    }

    /// Estimated executor latency of a request, in µs.
    pub fn estimate_us(&self, op: OpClass, units: u64) -> u64 {
        let rate = self.rate_ns[op.index()].load(Ordering::Relaxed);
        rate.saturating_mul(units.max(1)) / 1_000
    }

    /// The lane a request should queue in: cheap-by-fiat classes always
    /// [`Lane::Cheap`], everything else priced against the threshold.
    pub fn lane(&self, op: OpClass, units: u64) -> Lane {
        if cheap_by_fiat(op) {
            Lane::Cheap
        } else if self.estimate_us(op, units) >= LANE_THRESHOLD_US {
            Lane::Expensive
        } else {
            Lane::Cheap
        }
    }

    /// Fold one measured latency back into the model: EWMA-update the
    /// per-unit rate and record the relative estimation error.
    pub fn observe(&self, op: OpClass, units: u64, est_us: u64, actual_us: u64) {
        let sample_ns = actual_us.saturating_mul(1_000) / units.max(1);
        let slot = &self.rate_ns[op.index()];
        let old = slot.load(Ordering::Relaxed);
        let new = old + (sample_ns >> EWMA_SHIFT) - (old >> EWMA_SHIFT);
        slot.store(new.max(1), Ordering::Relaxed);
        let err = est_us.abs_diff(actual_us).saturating_mul(100) / actual_us.max(1);
        self.err_pct.record(err);
    }

    /// Current per-unit rate for `op`, in ns (tests and diagnostics).
    pub fn rate_ns(&self, op: OpClass) -> u64 {
        self.rate_ns[op.index()].load(Ordering::Relaxed)
    }

    /// Estimation-error percentile (percent), `None` before any sample.
    pub fn err_pct_percentile(&self, p: f64) -> Option<u64> {
        self.err_pct.percentile(p)
    }
}

/// Warn once per process about an explicitly configured bench snapshot
/// that contributed nothing (see [`CostModel::from_env`]).
fn warn_bench_once(path: &str, what: &str) {
    static WARN_ONCE: Once = Once::new();
    WARN_ONCE.call_once(|| {
        eprintln!("warning: sched bench snapshot {path:?} {what}; using built-in cost seeds");
    });
}

/// Minimal parser for the flat `{"key": integer}` JSON the criterion shim
/// writes — no nesting, no arrays, values are bare integers.
fn parse_flat_json(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('"') {
        rest = &rest[open + 1..];
        let Some(close) = rest.find('"') else { break };
        let key = rest[..close].to_string();
        rest = &rest[close + 1..];
        let Some(colon) = rest.find(':') else { break };
        rest = &rest[colon + 1..];
        let digits: String = rest.trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(value) = digits.parse::<u64>() {
            out.push((key, value));
        }
    }
    out
}

/// Why a [`LanePool`] push bounced. Mirrors the executor's submit errors:
/// both hand the item back, nothing is dropped on the floor.
#[derive(Debug)]
pub enum PushError<T> {
    /// The pool is at capacity; retry after a dequeue frees a slot.
    Full(T),
    /// The pool is closed and accepts no further work.
    Closed(T),
}

/// One item handed to a lane worker.
#[derive(Debug)]
pub struct LanePopped<T> {
    /// The dequeued item.
    pub item: T,
    /// The lane the item was queued in.
    pub lane: Lane,
}

/// The two-lane bounded pool: per-worker deques (via [`StealQueues`]),
/// workers split into a cheap set and an expensive set, pushes routed by
/// lane, pops stealing same-lane first and cross-lane last.
///
/// Capacity counts accepted-but-undequeued items, exactly like the FIFO
/// `sync_channel` it replaces, so callers feel the same backpressure.
pub struct LanePool<T> {
    queues: StealQueues<(Lane, T)>,
    /// Workers `0..cheap_workers` are the cheap lane; the rest expensive.
    cheap_workers: usize,
    workers: usize,
    /// Victim orders, one per worker: own deque, same-lane siblings,
    /// then the other lane.
    orders: Vec<Vec<usize>>,
    /// Round-robin cursors, one per lane, for spreading pushes.
    cursors: [AtomicUsize; 2],
    /// Queued-item count and close flag, guarded for the blocking push.
    gate: Mutex<Gate>,
    space: Condvar,
    capacity: usize,
    depth: [AtomicU64; 2],
    served: [AtomicU64; 2],
    stolen: [AtomicU64; 2],
}

struct Gate {
    queued: usize,
    closed: bool,
}

impl<T> LanePool<T> {
    /// A pool of `workers` deques holding at most `capacity` queued items.
    /// The expensive lane gets `workers / 2` deques — at least one when
    /// `workers ≥ 2`, none on a single-worker pool (which degenerates to
    /// one deque serving both lanes, classification feeding counters
    /// only).
    pub fn new(workers: usize, capacity: usize) -> LanePool<T> {
        let workers = workers.max(1);
        let expensive = workers / 2;
        let cheap_workers = workers - expensive;
        let lane_of = |w: usize| if w < cheap_workers { 0 } else { 1 };
        let orders = (0..workers)
            .map(|w| {
                let mut order = vec![w];
                // Same-lane siblings in ring order, then the other lane —
                // stolen last, so cheap reads keep flowing.
                for step in 1..workers {
                    let v = (w + step) % workers;
                    if lane_of(v) == lane_of(w) {
                        order.push(v);
                    }
                }
                for step in 1..workers {
                    let v = (w + step) % workers;
                    if lane_of(v) != lane_of(w) {
                        order.push(v);
                    }
                }
                order
            })
            .collect();
        LanePool {
            queues: StealQueues::new(workers),
            cheap_workers,
            workers,
            orders,
            cursors: [AtomicUsize::new(0), AtomicUsize::new(0)],
            gate: Mutex::new(Gate { queued: 0, closed: false }),
            space: Condvar::new(),
            capacity: capacity.max(1),
            depth: [AtomicU64::new(0), AtomicU64::new(0)],
            served: [AtomicU64::new(0), AtomicU64::new(0)],
            stolen: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Worker count (== deque count).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Deques homed on the cheap lane (the rest are expensive).
    pub fn cheap_workers(&self) -> usize {
        self.cheap_workers
    }

    /// The deque a `lane` push would target next: round-robin over the
    /// lane's own deques; a lane with no deques (single-worker pool)
    /// borrows the other's.
    fn target(&self, lane: Lane) -> usize {
        let (base, count) = match lane {
            Lane::Cheap => (0, self.cheap_workers),
            Lane::Expensive => (self.cheap_workers, self.workers - self.cheap_workers),
        };
        if count == 0 {
            return self.cursors[0].fetch_add(1, Ordering::Relaxed) % self.workers;
        }
        base + self.cursors[lane.index()].fetch_add(1, Ordering::Relaxed) % count
    }

    /// Nonblocking push: `Full` at capacity, `Closed` after [`close`].
    ///
    /// [`close`]: LanePool::close
    pub fn try_push(&self, lane: Lane, item: T) -> Result<(), PushError<T>> {
        let mut gate = self.lock_gate();
        if gate.closed {
            return Err(PushError::Closed(item));
        }
        if gate.queued >= self.capacity {
            return Err(PushError::Full(item));
        }
        gate.queued += 1;
        self.deliver(lane, item);
        Ok(())
    }

    /// Blocking push: waits for a slot while the pool is at capacity.
    /// Returns the item back if the pool closes while waiting.
    pub fn push(&self, lane: Lane, item: T) -> Result<(), T> {
        let mut gate = self.lock_gate();
        loop {
            if gate.closed {
                return Err(item);
            }
            if gate.queued < self.capacity {
                gate.queued += 1;
                break;
            }
            gate = self.space.wait(gate).expect("lane pool gate poisoned");
        }
        self.deliver(lane, item);
        Ok(())
    }

    /// Hand an accepted item (capacity slot already taken, gate still
    /// held by the caller) to the fabric. Because [`LanePool::close`]
    /// flips the closed flag *and* closes the fabric under the same gate
    /// lock, a push that passed the gate check cannot find the fabric
    /// closed — the lock ordering (gate, then fabric) is acyclic: pops
    /// never hold the fabric lock while taking the gate.
    fn deliver(&self, lane: Lane, item: T) {
        self.depth[lane.index()].fetch_add(1, Ordering::Relaxed);
        if self.queues.push(self.target(lane), (lane, item)).is_err() {
            unreachable!("lane pool closed with a capacity slot held");
        }
    }

    /// Blocking pop for `worker`: own deque, then same-lane siblings,
    /// then the other lane. `None` once the pool is closed and drained.
    pub fn pop(&self, worker: usize) -> Option<LanePopped<T>> {
        let Stolen { item: (lane, item), from } = self.queues.pop(&self.orders[worker])?;
        if from != worker {
            self.stolen[lane.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.depth[lane.index()].fetch_sub(1, Ordering::Relaxed);
        {
            let mut gate = self.lock_gate();
            gate.queued -= 1;
        }
        self.space.notify_one();
        Some(LanePopped { item, lane })
    }

    /// Count one completed item of `lane` (the executor calls this after
    /// the job ran, so `served` means finished, not merely dequeued).
    pub fn note_served(&self, lane: Lane) {
        self.served[lane.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Close the pool: pushes bounce, sleepers wake, pops drain what is
    /// queued and then return `None`.
    pub fn close(&self) {
        {
            let mut gate = self.lock_gate();
            gate.closed = true;
            // Close the fabric under the same lock the push gate uses —
            // see [`LanePool::deliver`] for why this cannot deadlock.
            self.queues.close();
        }
        self.space.notify_all();
    }

    /// Point-in-time lane counters (depth is instantaneous; served and
    /// stolen are monotone).
    pub fn lane_stats(&self, lane: Lane) -> LaneStats {
        let i = lane.index();
        LaneStats {
            depth: self.depth[i].load(Ordering::Relaxed),
            served: self.served[i].load(Ordering::Relaxed),
            stolen: self.stolen[i].load(Ordering::Relaxed),
        }
    }

    fn lock_gate(&self) -> std::sync::MutexGuard<'_, Gate> {
        self.gate.lock().expect("lane pool gate poisoned")
    }
}

/// Assemble the `STATS` scheduler block from a pool and its model.
pub fn snapshot<T>(pool: &LanePool<T>, model: &CostModel) -> SchedStats {
    SchedStats {
        cheap: pool.lane_stats(Lane::Cheap),
        expensive: pool.lane_stats(Lane::Expensive),
        err_pct_p50: model.err_pct_percentile(50.0),
        err_pct_p99: model.err_pct_percentile(99.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_round_trips() {
        assert_eq!(SchedMode::parse("fifo"), Some(SchedMode::Fifo));
        assert_eq!(SchedMode::parse(" lanes "), Some(SchedMode::Lanes));
        assert_eq!(SchedMode::parse("lane"), None);
        assert_eq!(SchedMode::Lanes.as_str(), "lanes");
    }

    #[test]
    fn cheap_classes_never_leave_the_cheap_lane() {
        let model = CostModel::default();
        for op in [
            OpClass::Info,
            OpClass::Spectrum,
            OpClass::Core,
            OpClass::Stats,
            OpClass::Metrics,
            OpClass::Trace,
        ] {
            assert_eq!(model.lane(op, u64::MAX / 2), Lane::Cheap, "{op:?}");
        }
        assert_eq!(model.lane(OpClass::Best, 64), Lane::Expensive);
    }

    #[test]
    fn observation_refines_the_rate_toward_reality() {
        let model = CostModel::default();
        // BEST turns out to cost ~10 µs/unit, not the pessimistic seed.
        for _ in 0..64 {
            let est = model.estimate_us(OpClass::Best, 10);
            model.observe(OpClass::Best, 10, est, 100);
        }
        let rate = model.rate_ns(OpClass::Best);
        assert!(rate < 20_000, "rate converged toward 10 µs/unit, got {rate} ns");
        // And small BEST requests now classify cheap.
        assert_eq!(model.lane(OpClass::Best, 2), Lane::Cheap);
        assert!(model.err_pct_percentile(50.0).is_some());
    }

    #[test]
    fn bench_snapshot_seeds_matching_classes() {
        let model = CostModel::default();
        let seeded = model.seed_from_snapshot(
            r#"{"pipeline/greedy/er": 3200000, "writer/shards4": 1600000, "substrate/walk": 5}"#,
        );
        assert!(seeded);
        assert_eq!(model.rate_ns(OpClass::Best), 200_000);
        assert_eq!(model.rate_ns(OpClass::Ingest), 100_000);
        assert_eq!(model.rate_ns(OpClass::Core), DEFAULT_RATE_NS[OpClass::Core.index()]);
        assert!(!model.seed_from_snapshot(r#"{"substrate/walk": 5}"#));
        assert!(!model.seed_from_snapshot("not json at all"));
    }

    #[test]
    fn lane_pool_routes_and_steals_cross_lane_last() {
        let pool: LanePool<u32> = LanePool::new(4, 16);
        assert_eq!(pool.cheap_workers(), 2);
        // Worker 0 (cheap): own, cheap sibling, then the expensive pair.
        assert_eq!(pool.orders[0], vec![0, 1, 2, 3]);
        // Worker 3 (expensive): own, expensive sibling, then cheap.
        assert_eq!(pool.orders[3], vec![3, 2, 0, 1]);
        pool.try_push(Lane::Expensive, 7).unwrap();
        // A cheap worker with no cheap work steals it — and it counts.
        let got = pool.pop(0).unwrap();
        assert_eq!((got.item, got.lane), (7, Lane::Expensive));
        assert_eq!(pool.lane_stats(Lane::Expensive).stolen, 1);
        assert_eq!(pool.lane_stats(Lane::Expensive).depth, 0);
    }

    #[test]
    fn lane_pool_enforces_capacity_and_close() {
        let pool: LanePool<u32> = LanePool::new(2, 2);
        pool.try_push(Lane::Cheap, 1).unwrap();
        pool.try_push(Lane::Cheap, 2).unwrap();
        match pool.try_push(Lane::Cheap, 3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        pool.close();
        match pool.try_push(Lane::Cheap, 4) {
            Err(PushError::Closed(4)) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        // Blocking push also bounces once closed.
        assert_eq!(pool.push(Lane::Cheap, 5), Err(5));
        // The queued items drain before the pool reports empty.
        assert_eq!(pool.pop(0).unwrap().item, 1);
        assert_eq!(pool.pop(1).unwrap().item, 2);
        assert!(pool.pop(0).is_none());
    }

    #[test]
    fn blocking_push_waits_for_a_slot() {
        let pool: std::sync::Arc<LanePool<u32>> = std::sync::Arc::new(LanePool::new(1, 1));
        pool.try_push(Lane::Cheap, 1).unwrap();
        let handle = {
            let pool = std::sync::Arc::clone(&pool);
            std::thread::spawn(move || pool.push(Lane::Cheap, 2))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(pool.pop(0).unwrap().item, 1);
        handle.join().unwrap().unwrap();
        assert_eq!(pool.pop(0).unwrap().item, 2);
    }

    #[test]
    fn single_worker_pool_degenerates_gracefully() {
        let pool: LanePool<u32> = LanePool::new(1, 8);
        assert_eq!(pool.cheap_workers(), 1);
        pool.try_push(Lane::Expensive, 9).unwrap();
        pool.try_push(Lane::Cheap, 1).unwrap();
        assert_eq!(pool.pop(0).unwrap().item, 9);
        assert_eq!(pool.pop(0).unwrap().item, 1);
    }

    #[test]
    fn flat_json_parser_reads_the_shim_format() {
        let parsed = parse_flat_json(r#"{"a/b": 12, "c d": 9000000}"#);
        assert_eq!(parsed, vec![("a/b".into(), 12), ("c d".into(), 9_000_000)]);
        assert!(parse_flat_json("").is_empty());
    }
}
