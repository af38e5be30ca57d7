//! In-memory spans for the traced run.
//!
//! Every span is recorded from the benchmark's own code, around one call
//! into a layer's public API; nothing inside the program is instrumented.
//! Spans stay in memory and are written once, when the run ends.
//!
//! A span's *self time* is its duration minus the durations of its child
//! spans. Children are either calls made inside the parent's interval
//! (the engine's solves) or the same work repeated by a separate call
//! (a timeline publish and the graph and kcore steps inside it), so the
//! rule subtracts durations rather than intersecting intervals.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use avt_core::SnapshotReport;

use crate::stats::json_string;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// The span this one is part of.
    pub parent: Option<u64>,
    /// Spans of one request (or one tracking run) share this id.
    pub trace: u64,
    /// The layer the call went into (`graph`, `kcore`, `core`, …).
    pub layer: &'static str,
    /// The call, e.g. `apply_batch`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
    /// Counts taken at the same boundaries as the spans, by name.
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), next_id: 1, counts: BTreeMap::new() }
    }
}

impl Tracer {
    /// Reserve a span id before the span's interval is known, so its
    /// children can name it as their parent.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        trace: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            trace,
            layer,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Record a span; returns its id.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, trace, parent, layer, name, start, end);
        id
    }

    /// Time `f` as one span; returns its result, the span id and the
    /// duration in µs.
    pub fn time<R>(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(trace, parent, layer, name, start, end);
        (out, id, end.duration_since(start).as_nanos() as f64 / 1e3)
    }

    /// Record one count observation under `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Mean of the observations under `name` (0 when there are none).
    pub fn count_mean(&self, name: &str) -> f64 {
        match self.counts.get(name) {
            Some(v) if !v.is_empty() => v.iter().sum::<f64>() / v.len() as f64,
            _ => 0.0,
        }
    }

    /// Median of the observations under `name` (0 when there are none).
    pub fn count_median(&self, name: &str) -> f64 {
        self.counts.get(name).and_then(|v| crate::stats::median(v)).unwrap_or(0.0)
    }

    /// Durations in µs of every span with this layer and name.
    pub fn durations_us(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Self time per layer, in ms: each span's duration minus its
    /// children's, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let own = s.dur_ns.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.layer).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line, after a header line
    /// carrying `header` (already-encoded JSON members).
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{{header}}}")?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"layer\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"dur_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.trace,
                json_string(s.layer),
                json_string(s.name),
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Per solver (`greedy`, `olak`): solves, vertices visited, candidates
/// probed and followers found, summed over the traced solves.
#[derive(Debug, Default)]
pub struct SolverCounts(HashMap<&'static str, [u64; 4]>);

impl SolverCounts {
    /// Add one solve's counters.
    pub fn add(&mut self, solver: &'static str, report: &SnapshotReport) {
        let c = self.0.entry(solver).or_default();
        c[0] += 1;
        c[1] += report.metrics.vertices_visited;
        c[2] += report.metrics.candidates_probed;
        c[3] += report.followers.len() as u64;
    }

    /// `core.{greedy,olak}_*`: median solve time from the `<solver>_solve`
    /// spans, mean visited and probed counts per solve, and followers
    /// found per candidate probed.
    pub fn metrics(&self, m: &mut BTreeMap<String, f64>, tracer: &Tracer) {
        for name in ["greedy", "olak"] {
            let span = format!("{name}_solve");
            let solve = crate::stats::median(&tracer.durations_us("core", &span)).unwrap_or(0.0);
            m.insert(format!("core.{name}_solve_us"), solve);
            let [solves, visited, probed, followers] =
                self.0.get(name).copied().unwrap_or_default();
            let per = |x: u64, of: u64| if of == 0 { 0.0 } else { x as f64 / of as f64 };
            m.insert(format!("core.{name}_visited"), per(visited, solves));
            m.insert(format!("core.{name}_probed"), per(probed, solves));
            m.insert(format!("core.{name}_followers_per_probe"), per(followers, probed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let base = Instant::now();
        let parent = t.reserve();
        t.record(1, Some(parent), "core", "solve", base, base + Duration::from_micros(300));
        t.record(1, Some(parent), "core", "solve", base, base + Duration::from_micros(200));
        t.record_as(parent, 1, None, "engine", "run", base, base + Duration::from_micros(1000));
        let by_layer = t.self_ms_by_layer();
        assert!((by_layer["engine"] - 0.5).abs() < 1e-9);
        assert!((by_layer["core"] - 0.5).abs() < 1e-9);
        assert_eq!(t.durations_us("core", "solve"), vec![300.0, 200.0]);
    }
}
