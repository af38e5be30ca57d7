//! Seeded request streams for the serve workloads.
//!
//! The same seed gives the same stream, request for request; the server
//! only ever sees the generated requests.

use avt_graph::EdgeBatch;
use avt_serve::{BestAlgo, Request};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Send offsets, in seconds from the start, for `count` requests arriving
/// at `rate` per second with exponential gaps, as from independent users.
/// The gaps are drawn stratified: each block of [`BLOCK`] gaps takes one
/// uniform draw from each hundredth of (0, 1), shuffled, so every block
/// has the exponential's full spread and two seeds differ in order, not in
/// how bursty they are.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0050_4f49_5353_4f4e);
    let mut at = 0.0;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        for stratum in shuffled_block(&mut rng) {
            let u = (stratum as f64 + rng.gen_range(0.0..1.0)) / BLOCK as f64;
            at += -(1.0 - u).ln() / rate;
            out.push(at);
        }
    }
    out.truncate(count);
    out
}

/// Requests per block of the stratified draws.
const BLOCK: usize = 100;

/// `0..BLOCK` in a seeded random order.
fn shuffled_block(rng: &mut SmallRng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..BLOCK as u32).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}

/// `count` mix rolls in 0..100, stratified like the schedule: every block
/// of [`BLOCK`] requests holds each roll exactly once, so each request
/// class has its exact weight in every block.
fn rolls(rng: &mut SmallRng, count: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(count + BLOCK);
    while out.len() < count {
        out.extend(shuffled_block(rng));
    }
    out.truncate(count);
    out
}

/// The `serve-read` mix, `loadgen`'s read mix by weight out of 100:
/// CORE 40, SPECTRUM 10, FOLLOWERS 20, ANCHORED 10, BEST 20 (greedy and
/// olak half each).
pub fn read_stream(seed: u64, n: usize, k: u32, count: usize) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed);
    rolls(&mut rng, count)
        .into_iter()
        .map(|roll| {
            let vertex = rng.gen_range(0..n) as u32;
            match roll {
                0..=39 => Request::Core(vertex),
                40..=49 => Request::Spectrum,
                50..=69 => Request::Followers { k, anchor: vertex },
                70..=79 => {
                    let second = rng.gen_range(0..n) as u32;
                    Request::Anchored { k, anchors: vec![vertex, second] }
                }
                80..=89 => Request::Best { k, b: 2, algo: BestAlgo::Greedy },
                _ => Request::Best { k, b: 2, algo: BestAlgo::Olak },
            }
        })
        .collect()
}

/// Shape of the `serve-write` stream.
#[derive(Debug, Clone, Copy)]
pub struct WriteShape {
    /// Most edge events in one `INGEST`.
    pub chunk: usize,
    /// Percent of `INGEST`s sent late (stragglers).
    pub straggler_pct: u32,
    /// Most `INGEST` positions a straggler is sent behind its turn; kept
    /// below the server's lag window so stragglers fold, not reject.
    pub max_delay: usize,
}

/// The `serve-write` stream: `count / 2` pairs of one `INGEST` and one
/// read (CORE or SPECTRUM, 4:1 as in `loadgen`'s read mix), the pair sent
/// together as a client that
/// writes and reads back would. The writes replay the dataset's own churn
/// `batches`, cut into `INGEST`s of at most `shape.chunk` events stamped
/// 1, 2, 3, … in stream order; a share of them is sent a few pairs late,
/// so it arrives behind the watermark. Fails when `batches` hold too few
/// events.
pub fn write_stream(
    seed: u64,
    n: usize,
    batches: &[EdgeBatch],
    count: usize,
    shape: WriteShape,
) -> Result<Vec<Request>, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5752_4954_4553);
    let writes = count / 2;

    let mut chunks: Vec<Request> = Vec::with_capacity(writes);
    'batches: for batch in batches {
        let events: Vec<(bool, (u32, u32))> = batch
            .insertions
            .iter()
            .map(|e| (true, (e.u, e.v)))
            .chain(batch.deletions.iter().map(|e| (false, (e.u, e.v))))
            .collect();
        for piece in events.chunks(shape.chunk.max(1)) {
            if chunks.len() == writes {
                break 'batches;
            }
            let ts = chunks.len() as u64 + 1;
            let insertions = piece.iter().filter(|e| e.0).map(|e| e.1).collect();
            let deletions = piece.iter().filter(|e| !e.0).map(|e| e.1).collect();
            chunks.push(Request::Ingest { ts, insertions, deletions });
        }
    }
    if chunks.len() < writes {
        return Err(format!("{} churn chunks for {writes} writes", chunks.len()));
    }

    // Send order: a straggler's position moves back by 1..=max_delay
    // places; a stable sort keeps everything else in stamp order.
    let mut keyed: Vec<(f64, Request)> = chunks
        .into_iter()
        .enumerate()
        .map(|(i, req)| {
            let delay = if shape.max_delay > 0 && rng.gen_range(0..100u32) < shape.straggler_pct {
                rng.gen_range(1..shape.max_delay + 1) as f64 + 0.5
            } else {
                0.0
            };
            (i as f64 + delay, req)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));

    let reads = rolls(&mut rng, writes);
    Ok(keyed
        .into_iter()
        .zip(reads)
        .flat_map(|((_, write), roll)| {
            let read = if roll < 80 {
                Request::Core(rng.gen_range(0..n) as u32)
            } else {
                Request::Spectrum
            };
            [write, read]
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batches() -> Vec<EdgeBatch> {
        (0..200u32)
            .map(|i| EdgeBatch::from_pairs([(i % 50, (i + 1) % 50), (i % 7, 40)], [(i % 9, 41)]))
            .collect()
    }

    const SHAPE: WriteShape = WriteShape { chunk: 2, straggler_pct: 20, max_delay: 2 };

    #[test]
    fn poisson_schedule_is_seeded_and_keeps_its_rate() {
        let a = poisson_schedule(5, 400.0, 8000);
        assert_eq!(a, poisson_schedule(5, 400.0, 8000));
        assert_ne!(a, poisson_schedule(6, 400.0, 8000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 8000 arrivals at 400/s take about 20 s.
        assert!((a[7999] - 20.0).abs() < 1.0, "{}", a[7999]);
    }

    #[test]
    fn same_seed_same_read_stream() {
        assert_eq!(read_stream(7, 100, 3, 500), read_stream(7, 100, 3, 500));
        assert_ne!(read_stream(7, 100, 3, 500), read_stream(8, 100, 3, 500));
    }

    #[test]
    fn same_seed_same_write_stream() {
        let a = write_stream(7, 50, &batches(), 300, SHAPE).unwrap();
        assert_eq!(a, write_stream(7, 50, &batches(), 300, SHAPE).unwrap());
        assert_ne!(a, write_stream(8, 50, &batches(), 300, SHAPE).unwrap());
    }

    #[test]
    fn read_mix_has_loadgen_weights_in_every_block() {
        let s = read_stream(1, 100, 3, 20_000);
        for block in s.chunks(BLOCK) {
            let count = |f: fn(&Request) -> bool| block.iter().filter(|r| f(r)).count();
            assert_eq!(count(|r| matches!(r, Request::Core(_))), 40);
            assert_eq!(count(|r| matches!(r, Request::Spectrum)), 10);
            assert_eq!(count(|r| matches!(r, Request::Followers { .. })), 20);
            assert_eq!(count(|r| matches!(r, Request::Anchored { .. })), 10);
            assert_eq!(count(|r| matches!(r, Request::Best { algo: BestAlgo::Olak, .. })), 10);
        }
    }

    #[test]
    fn writes_cover_the_churn_in_stamp_order_with_bounded_stragglers() {
        let s = write_stream(3, 50, &batches(), 400, SHAPE).unwrap();
        let stamps: Vec<u64> = s
            .iter()
            .filter_map(|r| match r {
                Request::Ingest { ts, .. } => Some(*ts),
                _ => None,
            })
            .collect();
        // Every stamp 1..=w is sent exactly once.
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=stamps.len() as u64).collect::<Vec<_>>());
        // Some arrive late, none more than max_delay behind the highest
        // stamp already sent.
        let mut high = 0u64;
        let mut late = 0;
        for &ts in &stamps {
            if ts < high {
                late += 1;
                assert!(high - ts <= SHAPE.max_delay as u64, "{ts} behind {high}");
            }
            high = high.max(ts);
        }
        assert!(late > 0);
        // The chunks replay the churn: the first one is batch 0's head.
        assert!(s.iter().any(|r| matches!(r,
            Request::Ingest { ts: 1, insertions, .. } if insertions == &vec![(0, 1), (0, 40)])));
    }

    #[test]
    fn writes_pair_with_reads() {
        let s = write_stream(4, 50, &batches(), 400, SHAPE).unwrap();
        assert_eq!(s.len(), 400);
        for pair in s.chunks(2) {
            assert!(matches!(pair[0], Request::Ingest { .. }));
            assert!(matches!(pair[1], Request::Core(_) | Request::Spectrum));
        }
    }

    #[test]
    fn writes_are_small_and_reads_keep_loadgen_core_spectrum_ratio() {
        let s = write_stream(5, 50, &batches(), 2 * 2 * BLOCK, SHAPE).unwrap();
        for r in &s {
            if let Request::Ingest { insertions, deletions, .. } = r {
                assert!((1..=SHAPE.chunk).contains(&(insertions.len() + deletions.len())));
            }
        }
        // Each block of BLOCK pairs holds CORE and SPECTRUM 4:1 exactly.
        for block in s.chunks(2 * BLOCK) {
            let cores = block.iter().filter(|r| matches!(r, Request::Core(_))).count();
            let spectra = block.iter().filter(|r| matches!(r, Request::Spectrum)).count();
            assert_eq!((cores, spectra), (80, 20));
        }
    }

    #[test]
    fn too_little_churn_is_an_error() {
        assert!(write_stream(1, 50, &batches()[..2], 400, SHAPE).is_err());
    }
}
