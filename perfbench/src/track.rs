//! The `track` workload: the paper's Figure 5 roster over the six
//! stand-in streams, in process through the `avt-bench` library.
//!
//! The streams are fixed datasets, like the paper's: generated once from
//! [`DATASET_SEED`] at [`SCALE`]. Each round runs every (stream, tracker)
//! pair once: 24 runs, which take turns a snapshot at a time (see
//! [`interleaved_round`]). The workload seed sets their turn order. The
//! traced run makes the same runs one after another.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use avt_bench::{algorithms, calibrate_k, datasets, Instance};
use avt_core::engine::run_sequential;
use avt_core::{
    AvtAlgorithm, AvtParams, AvtResult, Engine, Greedy, IncAvt, Olak, Rcm, SnapshotReport,
    SnapshotSolver,
};
use avt_graph::GraphView;
use avt_kcore::MaintainedCore;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::server::{cpu_s_of, host_cpu_ticks, hwm_mb_of, steal_share};
use crate::stats::{median, Samples};
use crate::trace::{SolverCounts, Tracer};
use crate::{Outcome, RunConfig};

/// Dataset scale of the stand-in streams.
pub const SCALE: f64 = 0.1;
/// Seed the stand-in streams are generated from (`run_experiments`'s
/// default).
pub const DATASET_SEED: u64 = 42;
/// Snapshots per stream (the paper's T).
pub const SNAPSHOTS: usize = 30;
/// Anchor budget (the paper's l).
pub const BUDGET: usize = 10;
/// The trackers, in the order `avt_bench::algorithms` lists them.
const ROSTER: [&str; 4] = ["OLAK", "Greedy", "IncAVT", "RCM"];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Fewest rounds per run: two rounds give 1440 snapshot steps, enough
/// for a p99 with ten samples beyond it.
const MIN_ROUNDS: usize = 2;
/// The recorded answers digest, relative to the benchmark directory.
pub const REFERENCE_FILE: &str = "reference/track.txt";

/// One prepared stream: its index in Table 2 order, the instance and the
/// tracking parameters (calibrated paper k, l = [`BUDGET`]).
struct Stream {
    index: usize,
    instance: Instance,
    params: AvtParams,
}

fn prepare() -> Vec<Stream> {
    datasets()
        .into_iter()
        .enumerate()
        .map(|(index, ds)| {
            let evolving = ds.generate(SCALE, SNAPSHOTS, DATASET_SEED);
            let params = AvtParams::new(calibrate_k(&evolving, ds.default_k()), BUDGET);
            Stream { index, instance: Instance::resident(evolving), params }
        })
        .collect()
}

/// FNV-1a over anchor sets and follower counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold in one snapshot's answer.
    fn snapshot(&mut self, t: usize, anchors: &[u32], followers: usize) {
        self.bytes(&(t as u64).to_le_bytes());
        self.bytes(&(anchors.len() as u64).to_le_bytes());
        for a in anchors {
            self.bytes(&a.to_le_bytes());
        }
        self.bytes(&(followers as u64).to_le_bytes());
    }

    /// Hex form, as stored in the reference file.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One round's answers: a digest per (stream, tracker) run, folded in
/// a fixed order whatever order the runs executed in.
#[derive(Debug, Default)]
struct Answers(BTreeMap<(usize, usize), Digest>);

impl Answers {
    fn digest(&self) -> Digest {
        let mut all = Digest::default();
        for (&(stream, tracker), d) in &self.0 {
            all.bytes(&(stream as u64).to_le_bytes());
            all.bytes(ROSTER[tracker].as_bytes());
            all.bytes(&d.0.to_le_bytes());
        }
        all
    }
}

/// The answers through the reference path: the engine's sequential
/// runner collected into whole results (and IncAVT's collecting `track`),
/// not the streamed runs the workload times.
pub fn reference_digest() -> Digest {
    let mut answers = Answers::default();
    for s in prepare() {
        let ev = &s.instance.evolving;
        let results: [Result<AvtResult, _>; 4] = [
            run_sequential(&Olak, ev, s.params),
            run_sequential(&Greedy::default(), ev, s.params),
            IncAvt.track(ev, s.params),
            run_sequential(&Rcm::default(), ev, s.params),
        ];
        for (tracker, result) in results.into_iter().enumerate() {
            let result = result.expect("stand-in streams are consistent");
            let mut d = Digest::default();
            for (i, (anchors, &followers)) in
                result.anchor_sets.iter().zip(&result.follower_counts).enumerate()
            {
                d.snapshot(i + 1, anchors, followers);
            }
            answers.0.insert((s.index, tracker), d);
        }
    }
    answers.digest()
}

/// The digest recorded in the reference file.
fn recorded_digest(bench_dir: &Path) -> Result<String, String> {
    let path = bench_dir.join(REFERENCE_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .ok_or_else(|| format!("{} records no digest", path.display()))
}

/// The (stream, tracker) runs of one round in a seeded order.
fn run_order(rng: &mut SmallRng, streams: usize) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> =
        (0..streams).flat_map(|s| (0..ROSTER.len()).map(move |t| (s, t))).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// The `track` workload.
pub fn track(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut streams = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        streams = prepare();
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.report(format!(
        "track: scale={SCALE} T={SNAPSHOTS} l={BUDGET} k={:?} engine_threads={}",
        streams.iter().map(|s| s.params.k).collect::<Vec<_>>(),
        Engine::default().threads()
    ));

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut tracer = Tracer::default();
    let mut solver_counts = SolverCounts::default();
    let mut steps = Vec::new();
    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut digests = Vec::new();
    let (cpu0, host0) = (cpu_s_of("/proc/self/stat")?, host_cpu_ticks()?);
    let start = Instant::now();
    // Rounds continue while another one still fits in the measured time.
    let fits = |done: usize| {
        let spent = start.elapsed().as_secs_f64();
        done < MIN_ROUNDS || spent + spent / done as f64 <= cfg.seconds as f64
    };
    while fits(digests.len()) {
        let first_step = steps.len();
        let mut answers = Answers::default();
        let mut sums: HashMap<&'static str, f64> = HashMap::new();
        if cfg.trace {
            for s in &streams {
                trace_substrate(&mut tracer, s);
            }
        }
        let order = run_order(&mut rng, streams.len());
        if cfg.trace {
            for &(si, ti) in &order {
                let s = &streams[si];
                let mut d = Digest::default();
                let run_start = Instant::now();
                trace_tracker(&mut tracer, &mut solver_counts, s, ti, &mut d, &mut steps);
                *sums.entry(ROSTER[ti]).or_default() += run_start.elapsed().as_secs_f64();
                answers.0.insert((s.index, ti), d);
            }
        } else {
            for (run, &(si, ti)) in interleaved_round(&streams, &order)?.into_iter().zip(&order) {
                steps.extend(run.steps);
                *sums.entry(ROSTER[ti]).or_default() += run.secs;
                answers.0.insert((streams[si].index, ti), run.digest);
            }
        }
        for (name, secs) in sums {
            per_round.entry(name).or_default().push(secs);
        }
        digests.push(answers.digest());
        let round = Samples::new(steps[first_step..].to_vec());
        out.report(format!("round {}: {}", digests.len() - 1, round.describe("us")));
    }
    let cpu_s = cpu_s_of("/proc/self/stat")? - cpu0;
    out.report(format!("host steal {:.1}% during the run", 100.0 * steal_share(host0)?));
    let rounds = digests.len();
    let attempted = (rounds * streams.len() * ROSTER.len() * SNAPSHOTS) as u64;
    out.attempted = attempted;
    out.failed = attempted.saturating_sub(steps.len() as u64);

    for (name, secs) in &per_round {
        out.report(format!(
            "track_s.{} = {:.4} s (median of {} rounds)",
            name.to_lowercase(),
            median(secs).unwrap_or(0.0),
            secs.len()
        ));
    }

    // Output check: every round gives the recorded answers. A missing
    // recording fails the check; `perfbench reference` regenerates it.
    let verdict = recorded_digest(&cfg.bench_dir).and_then(|want| {
        out.report(format!("reference: recorded digest {want}"));
        match digests.iter().filter(|d| d.hex() != want).count() {
            0 => Ok(()),
            bad => Err(format!("{bad} of {rounds} rounds differ from {want}")),
        }
    });
    out.check("anchor sets and follower counts equal the reference", verdict);

    let steps = Samples::new(steps);
    out.report(format!("snapshot steps: {}", steps.describe("us")));
    out.metrics.put("setup_s", median(&setups).expect("set up at least once"), "s");
    out.metrics.put("rss_mb", hwm_mb_of("/proc/self/status")?, "MB");
    out.metrics.put("ok_frac", steps.len() as f64 / attempted as f64, "ratio");
    out.put_pct("p50_us", &steps, 50.0, "us");
    out.put_pct("p99_us", &steps, 99.0, "us");
    out.metrics.put("cpu_us_per_op", cpu_s * 1e6 / steps.len().max(1) as f64, "us");

    if cfg.trace {
        let med =
            |layer: &str, name: &str| median(&tracer.durations_us(layer, name)).unwrap_or(0.0);
        let m = &mut out.layers;
        m.insert("graph.frame_derive_us".into(), med("graph", "frame_derive"));
        m.insert("kcore.maintain_us".into(), med("kcore", "maintain"));
        m.insert("kcore.maintain_visited".into(), tracer.count_mean("kcore.maintain_visited"));
        m.insert("core.incavt_step_us".into(), med("core", "incavt_step"));
        m.insert("core.engine_self_us".into(), tracer.count_median("core.engine_self_us"));
        solver_counts.metrics(m, &tracer);
        out.tracer = Some(tracer);
    }
    Ok(out)
}

/// What one tracking run of an interleaved round gave.
struct RunTimes {
    digest: Digest,
    /// Wall time of each snapshot step, µs.
    steps: Vec<f64>,
    /// The run's own time, the sum of its steps and its tail, s.
    secs: f64,
}

/// Turn-taking among the runs of one round: only the run whose turn it
/// is computes, and it hands the turn on after each snapshot.
struct Baton {
    /// Whose turn it is, and which runs have finished.
    state: Mutex<(usize, Vec<bool>)>,
    /// One per run, so a hand-off wakes only the next run.
    wake: Vec<Condvar>,
}

impl Baton {
    fn new(runs: usize) -> Baton {
        Baton {
            state: Mutex::new((0, vec![false; runs])),
            wake: (0..runs).map(|_| Condvar::new()).collect(),
        }
    }

    fn wait(&self, me: usize) {
        let mut state = self.state.lock().expect("baton lock");
        while state.0 != me {
            state = self.wake[me].wait(state).expect("baton lock");
        }
    }

    /// Hand the turn to the next unfinished run after `me`, in order.
    fn pass(&self, me: usize, finished: bool) {
        let mut state = self.state.lock().expect("baton lock");
        state.1[me] |= finished;
        if state.0 != me {
            return;
        }
        let runs = state.1.len();
        if let Some(next) = (1..=runs).map(|d| (me + d) % runs).find(|&i| !state.1[i]) {
            state.0 = next;
            self.wake[next].notify_one();
        }
    }
}

/// Passes the turn on for good when a run ends, however it ends.
struct Finish<'a>(&'a Baton, usize);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.pass(self.1, true);
    }
}

/// One untraced round: the runs of `order`, each on its own thread, take
/// turns a snapshot at a time, so only one computes at any moment. The
/// host's speed drifts over seconds; run one after another, the single
/// 3 s OLAK run on the largest stream, which holds every step near the
/// p99, would sample that drift once per round, while interleaved it
/// spans the whole round like every other run.
fn interleaved_round(
    streams: &[Stream],
    order: &[(usize, usize)],
) -> Result<Vec<RunTimes>, String> {
    let baton = Baton::new(order.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = order
            .iter()
            .enumerate()
            .map(|(me, &(si, ti))| {
                let (baton, s) = (&baton, &streams[si]);
                scope.spawn(move || {
                    let _finish = Finish(baton, me);
                    let trackers = algorithms();
                    let mut run = RunTimes {
                        digest: Digest::default(),
                        steps: Vec::with_capacity(SNAPSHOTS),
                        secs: 0.0,
                    };
                    baton.wait(me);
                    let mut turn = Instant::now();
                    trackers[ti]
                        .track_into(&s.instance, s.params, &mut |r| {
                            let step = turn.elapsed();
                            run.steps.push(step.as_nanos() as f64 / 1e3);
                            run.secs += step.as_secs_f64();
                            run.digest.snapshot(r.t, &r.anchors, r.followers.len());
                            baton.pass(me, false);
                            baton.wait(me);
                            turn = Instant::now();
                        })
                        .map_err(|e| format!("{}: {e}", ROSTER[ti]))?;
                    run.secs += turn.elapsed().as_secs_f64();
                    Ok(run)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a tracking run panicked")).collect()
    })
}

/// A solver wrapper that logs each solve's interval and report.
struct Timed<'a, S> {
    inner: S,
    log: &'a Mutex<Vec<(Instant, Instant, SnapshotReport)>>,
}

impl<S: SnapshotSolver> SnapshotSolver for Timed<'_, S> {
    fn solve_snapshot<G: GraphView>(
        &self,
        t: usize,
        frame: &G,
        params: AvtParams,
    ) -> SnapshotReport {
        let start = Instant::now();
        let report = self.inner.solve_snapshot(t, frame, params);
        let end = Instant::now();
        self.log.lock().expect("solve log").push((start, end, report.clone()));
        report
    }
}

/// The substrate under every tracker, traced once per stream and round:
/// each step of `EvolvingGraph::frames_arc` and each
/// `MaintainedCore::apply_batch_timed` over the stream's batches.
fn trace_substrate(tracer: &mut Tracer, s: &Stream) {
    let ev = &s.instance.evolving;
    let trace = s.index as u64;
    let mut frames = ev.frames_arc();
    loop {
        let start = Instant::now();
        let Some(_) = frames.next() else { break };
        tracer.record(trace, None, "graph", "frame_derive", start, Instant::now());
    }
    let mut maintained = MaintainedCore::new(ev.initial().clone());
    for batch in ev.batches() {
        let before = maintained.visited_vertices();
        tracer.time(trace, None, "kcore", "maintain", || {
            maintained.apply_batch_timed(batch).expect("stand-in batches apply")
        });
        tracer.count("kcore.maintain_visited", (maintained.visited_vertices() - before) as f64);
    }
}

/// One traced tracker run: an engine tracker with its solves as child
/// spans of the `Engine::run_into` span, or IncAVT with the gaps between
/// its sink calls as child spans.
fn trace_tracker(
    tracer: &mut Tracer,
    counts: &mut SolverCounts,
    s: &Stream,
    tracker: usize,
    digest: &mut Digest,
    steps: &mut Vec<f64>,
) {
    match tracker {
        0 => engine_run(tracer, counts, s, digest, steps, ("olak_solve", Some("olak")), Olak),
        1 => engine_run(
            tracer,
            counts,
            s,
            digest,
            steps,
            ("greedy_solve", Some("greedy")),
            Greedy::default(),
        ),
        2 => incavt_run(tracer, s, digest, steps),
        _ => engine_run(tracer, counts, s, digest, steps, ("rcm_solve", None), Rcm::default()),
    }
}

fn engine_run<S: SnapshotSolver>(
    tracer: &mut Tracer,
    counts: &mut SolverCounts,
    s: &Stream,
    digest: &mut Digest,
    steps: &mut Vec<f64>,
    (span, counter): (&'static str, Option<&'static str>),
    solver: S,
) {
    let log = Mutex::new(Vec::new());
    let timed = Timed { inner: solver, log: &log };
    let run_id = tracer.reserve();
    let start = Instant::now();
    let mut last = start;
    Engine::default()
        .run_into(&timed, &s.instance.evolving, s.params, &mut |r: SnapshotReport| {
            let now = Instant::now();
            steps.push(now.duration_since(last).as_nanos() as f64 / 1e3);
            last = now;
            digest.snapshot(r.t, &r.anchors, r.followers.len());
        })
        .expect("stand-in streams are consistent");
    let end = Instant::now();
    let trace = s.index as u64;
    tracer.record_as(run_id, trace, None, "core", "engine_run", start, end);
    let mut solves_ns = 0u128;
    for (a, b, report) in log.into_inner().expect("solve log") {
        solves_ns += b.duration_since(a).as_nanos();
        tracer.record(trace, Some(run_id), "core", span, a, b);
        if let Some(counter) = counter {
            counts.add(counter, &report);
        }
    }
    let run_ns = end.duration_since(start).as_nanos();
    tracer.count("core.engine_self_us", run_ns.saturating_sub(solves_ns) as f64 / 1e3);
}

fn incavt_run(tracer: &mut Tracer, s: &Stream, digest: &mut Digest, steps: &mut Vec<f64>) {
    let run_id = tracer.reserve();
    let start = Instant::now();
    let mut last = start;
    let mut gaps = Vec::new();
    IncAvt
        .track_into(&s.instance.evolving, s.params, &mut |r: SnapshotReport| {
            let now = Instant::now();
            gaps.push((last, now));
            last = now;
            digest.snapshot(r.t, &r.anchors, r.followers.len());
        })
        .expect("stand-in streams are consistent");
    let trace = s.index as u64;
    tracer.record_as(run_id, trace, None, "core", "incavt_run", start, Instant::now());
    for (i, (a, b)) in gaps.into_iter().enumerate() {
        steps.push(b.duration_since(a).as_nanos() as f64 / 1e3);
        // The first report is the initial full Greedy pass; the steps
        // proper are the gaps between consecutive sink calls.
        let name = if i == 0 { "incavt_first" } else { "incavt_step" };
        tracer.record(trace, Some(run_id), "core", name, a, b);
    }
}
