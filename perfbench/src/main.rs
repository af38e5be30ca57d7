//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload serve-read|serve-write|track --seed N --seconds S --trace 0|1
//!           --server PATH --bench-dir DIR --out-dir DIR --expect NAME,NAME,…
//!           [--commit ID] [--rustc VERSION] [--offered-qps Q]
//! perfbench reference
//! ```
//!
//! Normally launched by `run.py`, which builds this binary and
//! `avt-serve` and passes the paths and the metric names `BENCHMARK.json`
//! declares. Prints a human-readable report, then one JSON result line
//! (the last line of stdout). With `--trace 0` the result carries the
//! end-to-end metrics; with `--trace 1` the per-layer metrics from the
//! traced run, whose spans are written to `--out-dir` at exit. Exits 1
//! when an output check fails (after printing the result with
//! `"correct": false`) or when the run cannot complete (with no result).
//!
//! `--offered-qps` replaces a serve workload's recorded rate, to locate
//! the rate where its backlog starts to grow; `run.py` never passes it.
//!
//! `reference` prints the `track` answers digest, computed through the
//! reference path, for `reference/track.txt`.
//!
//! Both refuse to run with any `AVT_*` runtime switch set: the benchmark
//! measures the defaults (see [`pin_env`]).

mod client;
mod mix;
mod serve;
mod server;
mod stats;
mod trace;
mod track;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::{json_string, MetricSet, Samples};
use trace::Tracer;

/// The per-layer metrics, each reported by every traced run (zero where
/// the workload does not exercise the layer), with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.apply_batch_us", "us"),
    ("graph.frame_derive_us", "us"),
    ("graph.self_ms", "ms"),
    ("kcore.maintain_us", "us"),
    ("kcore.maintain_visited", "count"),
    ("kcore.self_ms", "ms"),
    ("core.greedy_solve_us", "us"),
    ("core.greedy_visited", "count"),
    ("core.greedy_probed", "count"),
    ("core.greedy_followers_per_probe", "ratio"),
    ("core.olak_solve_us", "us"),
    ("core.olak_visited", "count"),
    ("core.olak_probed", "count"),
    ("core.olak_followers_per_probe", "ratio"),
    ("core.followers_us", "us"),
    ("core.anchored_us", "us"),
    ("core.incavt_step_us", "us"),
    ("core.engine_self_us", "us"),
    ("core.self_ms", "ms"),
    ("admission.ingest_us", "us"),
    ("admission.accepted", "count"),
    ("admission.folded", "count"),
    ("admission.rejected", "count"),
    ("admission.publishes_per_ingest", "ratio"),
    ("admission.self_ms", "ms"),
    ("timeline.publish_us", "us"),
    ("timeline.self_us", "us"),
    ("timeline.self_ms", "ms"),
    ("executor.execute_us.core", "us"),
    ("executor.execute_us.spectrum", "us"),
    ("executor.execute_us.followers", "us"),
    ("executor.execute_us.anchored", "us"),
    ("executor.execute_us.best", "us"),
    ("executor.execute_us.ingest", "us"),
    ("executor.queue_us", "us"),
    ("executor.self_ms", "ms"),
    ("binary.decode_us.core", "us"),
    ("binary.decode_us.spectrum", "us"),
    ("binary.decode_us.followers", "us"),
    ("binary.decode_us.anchored", "us"),
    ("binary.decode_us.best", "us"),
    ("binary.decode_us.ingest", "us"),
    ("binary.encode_us.core", "us"),
    ("binary.encode_us.spectrum", "us"),
    ("binary.encode_us.followers", "us"),
    ("binary.encode_us.anchored", "us"),
    ("binary.encode_us.best", "us"),
    ("binary.encode_us.ingest", "us"),
    ("binary.self_ms", "ms"),
    ("conn.ingest_us", "us"),
    ("conn.complete_us", "us"),
    ("conn.self_ms", "ms"),
    ("wire.residual_us", "us"),
    ("client.late_p99_us", "us"),
];

/// Layers whose span self time is reported as `<layer>.self_ms`.
const SELF_TIME_LAYERS: &[&str] =
    &["graph", "kcore", "core", "admission", "timeline", "executor", "binary", "conn"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// The traced run (per-layer metrics) rather than the plain one.
    pub trace: bool,
    /// The `avt-serve` binary.
    pub server: PathBuf,
    /// The benchmark's own directory (reference answers live there).
    pub bench_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
    /// Most client connections: one per CPU, at most two.
    pub connections: usize,
    /// Offered rate of a serve workload in place of its recorded one, for
    /// locating the knee; the benchmark's runs never set it.
    pub qps: Option<f64>,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub metrics: MetricSet,
    /// Per-layer metrics of a traced run (missing names report 0).
    pub layers: BTreeMap<String, f64>,
    /// Output checks: name and verdict.
    pub checks: Vec<(String, Result<(), String>)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or were never answered.
    pub failed: u64,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Add a report line.
    pub fn report(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Record a check verdict.
    pub fn check(&mut self, name: &str, verdict: Result<(), String>) {
        self.checks.push((name.to_string(), verdict));
    }

    /// Record a percentile metric, or a failed check when the sample is
    /// too small to support it.
    pub fn put_pct(&mut self, name: &str, samples: &Samples, p: f64, unit: &'static str) {
        match samples.pct(p) {
            Some(v) => self.metrics.put(name, v, unit),
            None => self.check(
                &format!("{name} has ten samples beyond it"),
                Err(format!("only {} samples", samples.len())),
            ),
        }
    }
}

/// What [`pin_env`] leaves set, for the provenance header.
const PINNED_ENV: &str = "AVT_* unset but AVT_DATA_DIR, which names an empty directory";

/// Pin the repository's runtime switches to their defaults. They are
/// environment variables (`AVT_SCHED`, `AVT_WRITE_SHARDS`, `AVT_OBS`,
/// `AVT_ENGINE_THREADS`, `AVT_DATA_DIR`, …), read by this process and by
/// the server it starts, which inherits this environment. Refuses to run
/// with any of them set (`run.py` removes them), then points
/// `AVT_DATA_DIR` at a directory under `out_dir` that holds no dataset,
/// so the synthetic stand-ins are measured even where `./data` holds
/// real SNAP files.
fn pin_env(out_dir: &Path) -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("AVT_"))
        .collect();
    if !set.is_empty() {
        return Err(format!("{} set: the benchmark measures the defaults", set.join(", ")));
    }
    let empty = out_dir.join("no-data");
    if empty.exists() {
        return Err(format!("{} exists; it must stay empty", empty.display()));
    }
    std::env::set_var(avt_datasets::DATA_DIR_ENV, empty);
    Ok(())
}

struct Args {
    cfg: RunConfig,
    expect: Vec<String>,
    commit: String,
    rustc: String,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut get = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        get.insert(key.to_string(), value.clone());
    }
    let need = |k: &str| get.get(k).cloned().ok_or_else(|| format!("--{k} is required"));
    let workload = need("workload")?;
    if !["serve-read", "serve-write", "track"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match need("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunConfig {
        workload,
        seed: need("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: need("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace,
        server: need("server")?.into(),
        bench_dir: need("bench-dir")?.into(),
        out_dir: need("out-dir")?.into(),
        connections: nproc.min(2),
        qps: match get.get("offered-qps") {
            Some(q) => Some(q.parse().map_err(|e| format!("--offered-qps: {e}"))?),
            None => None,
        },
    };
    if cfg.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        cfg,
        expect: need("expect")?.split(',').map(str::to_string).collect(),
        commit: get.get("commit").cloned().unwrap_or_else(|| "unknown".into()),
        rustc: get.get("rustc").cloned().unwrap_or_else(|| "unknown".into()),
    })
}

fn provenance(args: &Args) -> String {
    let cfg = &args.cfg;
    let (scale, rate, connections) = match cfg.workload.as_str() {
        "serve-read" => (serve::SCALE, cfg.qps.unwrap_or(serve::READ_QPS), cfg.connections),
        "serve-write" => (serve::SCALE, cfg.qps.unwrap_or(serve::WRITE_QPS), cfg.connections),
        _ => (track::SCALE, 0.0, 0),
    };
    format!(
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"connections\": {}, \"commit\": {}, \"rustc\": {}, \"scale\": {scale}, \"offered_qps\": {rate}, \
         \"env\": {}",
        json_string(&cfg.workload),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        connections,
        json_string(&args.commit),
        json_string(&args.rustc),
        json_string(PINNED_ENV),
    )
}

/// The traced run's per-layer metric set: every declared name, zero where
/// the workload left the layer idle, plus span self times.
fn layer_set(out: &Outcome) -> Result<MetricSet, String> {
    let known: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    if let Some(stray) = out.layers.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("workload reported undeclared layer metric {stray}"));
    }
    let self_ms = out.tracer.as_ref().map(Tracer::self_ms_by_layer).unwrap_or_default();
    let mut set = MetricSet::default();
    for &(name, unit) in PER_LAYER {
        let value = match name.strip_suffix(".self_ms") {
            Some(layer) if SELF_TIME_LAYERS.contains(&layer) => {
                self_ms.get(layer).copied().unwrap_or(0.0)
            }
            _ => out.layers.get(name).copied().unwrap_or(0.0),
        };
        set.put(name, value, unit);
    }
    Ok(set)
}

fn run(args: &Args) -> Result<bool, String> {
    let cfg = &args.cfg;
    pin_env(&cfg.out_dir)?;
    let header = provenance(args);
    println!("# provenance {{{header}}}");
    let mut out = match cfg.workload.as_str() {
        "serve-read" => serve::serve_read(cfg)?,
        "serve-write" => serve::serve_write(cfg)?,
        _ => track::track(cfg)?,
    };
    for line in &out.lines {
        println!("{line}");
    }
    let mut correct = true;
    for (name, verdict) in &out.checks {
        match verdict {
            Ok(()) => println!("check: {name}: ok"),
            Err(why) => {
                correct = false;
                println!("check: {name}: FAILED ({why})");
            }
        }
    }
    let set = if cfg.trace { layer_set(&out)? } else { std::mem::take(&mut out.metrics) };
    if let Err(why) = set.validate(&args.expect) {
        correct = false;
        println!("check: metric set matches BENCHMARK.json: FAILED ({why})");
    }
    for m in set.iter() {
        println!("metric {} = {} {}", m.name, stats::json_number(m.value), m.unit);
    }
    if let Some(tracer) = &out.tracer {
        for (layer, ms) in tracer.self_ms_by_layer() {
            println!("self time {layer} = {ms:.3} ms");
        }
        let path = cfg.out_dir.join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
        tracer.write(&path, &header).map_err(|e| format!("writing spans: {e}"))?;
        println!("spans: {} written to {}", tracer.len(), path.display());
    }
    println!("{}", set.result_line(correct, out.attempted.max(1), out.failed));
    Ok(correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("reference") {
        if let Err(e) = pin_env(Path::new(".perfbench")) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        println!("{}", track::reference_digest().hex());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
