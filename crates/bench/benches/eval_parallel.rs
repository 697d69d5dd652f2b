//! Parallel batch query engine vs the sequential evaluator.
//!
//! The workload is the acceptance scenario for the batch engine: 64
//! membership queries against a Zipf(z=1) column of cardinality 200,
//! evaluated (a) one at a time with the paper's component-wise strategy
//! and (b) as one batch through `ParallelExecutor` at several thread
//! counts. Both paths produce bit-identical results and equal scan counts
//! (asserted below before timing starts).
//!
//! Besides the Criterion timings, the bench writes a machine-readable
//! summary — median batch times and speedups per thread count — to
//! `results/eval_parallel.json` at the workspace root, and the committed
//! perf baseline `BENCH_eval.json` (same numbers plus a traced per-phase
//! breakdown) in the repo root for future PRs to diff against.

use bix_bench::results;
use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalStrategy, IndexConfig,
    ParallelExecutor, Query, ShardedBufferPool,
};
use bix_workload::{DatasetSpec, QuerySetSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 200_000;
const C: u64 = 200;
const QUERIES: usize = 64;
const POOL_PAGES: usize = 8192;

fn setup() -> (BitmapIndex, Vec<Query>) {
    let data = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 99,
    }
    .generate();
    let config = IndexConfig::one_component(C, EncodingScheme::Interval).with_codec(CodecKind::Bbc);
    let index = BitmapIndex::build(&data.values, &config);
    let queries: Vec<Query> = QuerySetSpec { n_int: 4, n_equ: 2 }
        .generate(C, QUERIES, 7)
        .into_iter()
        .map(|g| Query::Membership(g.values()))
        .collect();
    (index, queries)
}

fn run_sequential(index: &mut BitmapIndex, queries: &[Query]) -> usize {
    let mut pool = BufferPool::new(POOL_PAGES);
    let cost = CostModel::default();
    let mut scans = 0usize;
    for q in queries {
        scans += index
            .evaluate_detailed(q, &mut pool, EvalStrategy::ComponentWise, &cost)
            .scans;
    }
    scans
}

fn run_parallel(index: &BitmapIndex, queries: &[Query], threads: usize) -> usize {
    let pool = ShardedBufferPool::new(POOL_PAGES, threads.max(2));
    ParallelExecutor::new(threads)
        .execute(index, queries, &pool, &CostModel::default())
        .total_scans()
}

fn thread_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![2usize, 4];
    if cores > 4 {
        counts.push(cores);
    }
    counts
}

/// Median wall time of `reps` runs of `f`, in seconds.
fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn verify_agreement(index: &mut BitmapIndex, queries: &[Query]) {
    let cost = CostModel::default();
    let pool = ShardedBufferPool::new(POOL_PAGES, 4);
    let batch = ParallelExecutor::new(4).execute(index, queries, &pool, &cost);
    let mut seq_pool = BufferPool::new(POOL_PAGES);
    for (i, q) in queries.iter().enumerate() {
        let want = index.evaluate_detailed(q, &mut seq_pool, EvalStrategy::ComponentWise, &cost);
        assert_eq!(batch.results[i].bitmap, want.bitmap, "q{i} bitmap");
        assert_eq!(batch.results[i].scans, want.scans, "q{i} scans");
    }
}

fn write_results_json(index: &mut BitmapIndex, queries: &[Query]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = 5;
    let seq = median_seconds(reps, || {
        black_box(run_sequential(index, queries));
    });
    let mut lines = Vec::new();
    for t in thread_counts() {
        let shared: &BitmapIndex = index;
        let par = median_seconds(reps, || {
            black_box(run_parallel(shared, queries, t));
        });
        let speedup = seq / par;
        eprintln!(
            "eval_parallel: {QUERIES} queries, {t} threads on {cores} core(s): \
             {:.2}ms vs {:.2}ms sequential ({speedup:.2}x)",
            par * 1e3,
            seq * 1e3,
        );
        lines.push(format!(
            "    {{\"threads\": {t}, \"batch_seconds\": {par:.6}, \"speedup\": {speedup:.3}}}"
        ));
    }

    // One traced batch run: where inside the executor the time goes
    // (query span per batch entry, expression build, DAG fold, per-node
    // run + queue-wait), keyed by span phase.
    let traced = {
        let shared: &BitmapIndex = index;
        let pool = ShardedBufferPool::new(POOL_PAGES, 4);
        results::trace_run(|tracer| {
            black_box(
                ParallelExecutor::new(4)
                    .execute_full_delta(
                        shared,
                        None,
                        queries,
                        &pool,
                        &CostModel::default(),
                        tracer,
                        None,
                        None,
                    )
                    .expect("no deadline"),
            );
        })
    };

    let json = format!(
        "{{\n  \"benchmark\": \"eval_parallel\",\n  \"rows\": {ROWS},\n  \"cardinality\": {C},\n  \"zipf_z\": 1.0,\n  \"queries\": {QUERIES},\n  \"encoding\": \"I\",\n  \"codec\": \"bbc\",\n  \"pool_pages\": {POOL_PAGES},\n  \"host_cores\": {cores},\n  \"sequential_seconds\": {seq:.6},\n  \"parallel\": [\n{}\n  ],\n  \"traced_phases\": {}\n}}\n",
        lines.join(",\n"),
        results::phases_json(&traced),
    );
    results::write_validated(&results::results_dir().join("eval_parallel.json"), &json);
    results::write_validated(&results::repo_root().join("BENCH_eval.json"), &json);
}

fn bench_parallel(c: &mut Criterion) {
    let (mut index, queries) = setup();
    verify_agreement(&mut index, &queries);

    let mut group = c.benchmark_group("eval_parallel");
    group.throughput(Throughput::Elements(QUERIES as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(run_sequential(&mut index, &queries)))
    });
    for t in thread_counts() {
        let shared: &BitmapIndex = &index;
        group.bench_function(BenchmarkId::new("parallel", t), |b| {
            b.iter(|| black_box(run_parallel(shared, &queries, t)))
        });
    }
    group.finish();

    write_results_json(&mut index, &queries);
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
