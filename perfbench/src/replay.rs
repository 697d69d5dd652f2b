//! The traced run's per-layer timing: each layer is timed from outside,
//! by calling its public functions on replicas of what the servers hold,
//! so no span is added inside the program.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::time::Instant;

use bix_compress::CompressedBitmap;
use bix_core::{BitmapIndex, BitmapRef, Expr, ReadContext, ShardedBufferPool};
use bix_server::{decode_frame, encode_frame, Frame, Message, Response};
use bix_storage::{BitmapHandle, BitmapStore, DiskConfig};

use crate::stats::median;
use crate::Report;

/// Repetitions behind each timed call; the median is kept.
pub const REPS: usize = 3;

/// Queries replayed per traced run: the first of the workload's mix.
pub const REPLAYED: usize = 64;

/// Median wall time of `reps` calls of `f`, in microseconds, with the
/// last call's output.
pub fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let started = Instant::now();
        let out = black_box(f());
        times.push(started.elapsed().as_secs_f64() * 1e6);
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Per-layer sums over the replayed queries, reported as means.
#[derive(Debug, Default)]
pub struct Layers {
    sums: Vec<(&'static str, f64)>,
    queries: usize,
}

impl Layers {
    /// Adds one query's layer values.
    pub fn add_query(&mut self, values: &[(&'static str, f64)]) {
        for &(name, v) in values {
            match self.sums.iter_mut().find(|(n, _)| *n == name) {
                Some((_, sum)) => *sum += v,
                None => self.sums.push((name, v)),
            }
        }
        self.queries += 1;
    }

    /// Mean of `name` per replayed query (0 if never added).
    pub fn mean(&self, name: &str) -> f64 {
        self.sums
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| s / self.queries.max(1) as f64)
    }

    /// Reports every layer's mean, plus `bitvec.fold_us`, derived as
    /// eval time minus fetch and decode time (floored at 0).
    pub fn report(&self, report: &mut Report) {
        for &(name, _) in &self.sums {
            report.metric(name, self.mean(name));
        }
        let fold = self.mean("core.parallel.eval_us")
            - self.mean("storage.store.fetch_us")
            - self.mean("compress.codec.decode_us");
        report.metric("bitvec.fold_us", fold.max(0.0));
        report.note(format!(
            "per-layer figures are means over {} replayed queries; bitvec.fold_us is derived: \
             core.parallel.eval_us - storage.store.fetch_us - compress.codec.decode_us",
            self.queries
        ));
    }
}

/// Per layer, the largest value across shards: shards serve one query
/// in parallel, so the slowest shard is the one a reply waits for.
pub fn slowest_shard(per_shard: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for shard in per_shard {
        for &(name, v) in shard {
            match out.iter_mut().find(|(n, _)| *n == name) {
                Some((_, m)) => *m = m.max(v),
                None => out.push((name, v)),
            }
        }
    }
    out
}

/// The bitmaps the rewrite of `constituents` reads.
pub fn leaves(constituents: &[Expr]) -> BTreeSet<BitmapRef> {
    constituents.iter().flat_map(Expr::leaves).collect()
}

/// A copy of a server's stored bitmaps in a store of its own, behind a
/// sharded pool the size of the server's, for timing page fetch + CRC
/// and codec decode apart from the fold.
pub struct ReplicaStore {
    store: BitmapStore,
    pool: ShardedBufferPool,
    handles: HashMap<(usize, BitmapRef), BitmapHandle>,
}

impl ReplicaStore {
    /// An empty replica with a pool of `pool_pages` pages in
    /// `pool_shards` shards.
    pub fn new(pool_pages: usize, pool_shards: usize) -> ReplicaStore {
        ReplicaStore {
            store: BitmapStore::new(DiskConfig::default()),
            pool: ShardedBufferPool::new(pool_pages, pool_shards),
            handles: HashMap::new(),
        }
    }

    /// Copies `refs` of attribute `attr`'s index in, re-encoded with
    /// the index's codec.
    pub fn add(&mut self, attr: usize, index: &mut BitmapIndex, refs: &BTreeSet<BitmapRef>) {
        let codec = index.config().codec;
        for &r in refs {
            if self.handles.contains_key(&(attr, r)) {
                continue;
            }
            let bits = index.bitmap(r.component, r.slot);
            let name = format!("a{attr}c{}s{}", r.component, r.slot);
            let handle = self.store.put(&name, codec, &bits);
            self.handles.insert((attr, r), handle);
        }
    }

    /// Fetches `keys` through the pool (CRC-checked), then decodes
    /// them: `(fetch_us, decode_us, bytes decoded)`.
    pub fn fetch_decode(&self, keys: &[(usize, BitmapRef)]) -> (f64, f64, usize) {
        let mut ctx = ReadContext::new();
        let started = Instant::now();
        let fetched: Vec<CompressedBitmap> = keys
            .iter()
            .map(|k| {
                self.store
                    .read_compressed_shared(self.handles[k], &self.pool, &mut ctx)
                    .expect("replica bitmaps read back intact")
            })
            .collect();
        let fetch_us = started.elapsed().as_secs_f64() * 1e6;
        let (decode_us, _) = time_us(REPS, || {
            fetched.iter().map(|c| c.decode().len()).sum::<usize>()
        });
        let bytes = fetched.iter().map(CompressedBitmap::stored_size).sum();
        (fetch_us, decode_us, bytes)
    }
}

/// Frame size and encode/decode time of the reply a client receives.
pub fn reply_frame(response: Response) -> Vec<(&'static str, f64)> {
    let frame = Frame::new(1, Message::Response(response));
    let (encode_us, bytes) = time_us(REPS, || encode_frame(&frame));
    let (decode_us, decoded) = time_us(REPS, || decode_frame(&bytes).map(|(f, _)| f));
    let decoded = decoded.expect("an encoded reply frame decodes");
    assert_eq!(decoded.msg, frame.msg, "reply frame round-trips");
    vec![
        ("server.protocol.reply_bytes", bytes.len() as f64),
        ("server.protocol.encode_us", encode_us),
        ("server.protocol.decode_us", decode_us),
    ]
}

/// Reports the metrics shared by every traced run: registry-derived
/// server and pool figures over the untraced phase, `trace.overhead`
/// (1 - traced qps / untraced qps) and `trace.accounted_share` (the sum
/// of `accounted` layer means over the traced median latency).
pub fn report_common(
    report: &mut Report,
    layers: &Layers,
    accounted: &[&str],
    counters: &crate::drive::Counters,
    untraced: &crate::drive::Phase,
    traced: &crate::drive::Phase,
) {
    let queries = (untraced.tally.attempted - untraced.tally.failed()).max(1) as f64;
    report.metric(
        "server.server.queue_wait_us",
        counters.queue_wait_ns as f64 / counters.queue_waits.max(1) as f64 / 1e3,
    );
    report.metric(
        "server.server.bytes_out_per_query",
        counters.bytes_out as f64 / queries,
    );
    let requests = counters.pages_read + counters.pool_hits;
    report.metric(
        "storage.shard_pool.hit_ratio",
        counters.pool_hits as f64 / requests.max(1) as f64,
    );
    report.metric(
        "storage.pages_read_per_query",
        counters.pages_read as f64 / queries,
    );
    report.metric(
        "trace.overhead",
        1.0 - traced.ok_per_s() / untraced.ok_per_s(),
    );
    let accounted_us: f64 = accounted.iter().map(|n| layers.mean(n)).sum();
    let traced_p50_ms = traced.latencies.p50().unwrap_or(f64::NAN);
    report.metric(
        "trace.accounted_share",
        accounted_us / (traced_p50_ms * 1e3),
    );
    report.note(format!(
        "untraced phase: {:.1} qps, {}; traced phase: {:.1} qps, {}",
        untraced.ok_per_s(),
        untraced.latencies.describe(),
        traced.ok_per_s(),
        traced.latencies.describe()
    ));
    report.note(format!(
        "trace.accounted_share = ({}) / traced p50",
        accounted.join(" + ")
    ));
    layers.report(report);
}
