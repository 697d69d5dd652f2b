//! The write path, measured inside the `routed_rows` traced run: one
//! monolith server over an equality-encoded, EWAH-compressed index.
//! One connection sends small ingest batches on a fixed schedule (open
//! loop); the other runs closed-loop selective equality and
//! narrow-range queries over main ∪ delta, while the background merge
//! runs about once a second. It reports the `ingest.*` and
//! `core.delta.*` metrics. It is not a gated workload: its timings
//! vary too much between runs on a shared two-core host (see
//! `perfbench/README.md`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, DeltaIndex, EncodingScheme, EvalDomain,
    EvalStrategy, IndexConfig, ParallelExecutor, Query, ShardedBufferPool, Tracer,
};
use bix_server::{
    IndexHandler, Request, RequestMeta, Response, ServeHandler, Server, ServerConfig,
};
use bix_workload::DatasetSpec;

use crate::drive::{self, Counters, Servers};
use crate::replay::{self, REPLAYED, REPS};
use crate::stats::{Latencies, OpenLoop, Outcome, Tally};
use crate::{sub_seed, Report, Rng};

const ROWS: usize = 200_000;
const C: u64 = 50;
const ZIPF_Z: f64 = 1.0;
const QUERIES: usize = 256;
/// Rows per ingest batch.
const BATCH: usize = 50;
/// Ingest batches sent per second.
const RATE: f64 = 100.0;
/// Queries select values from here up (each under 2% of the rows).
const SELECTIVE_FROM: u64 = 10;

fn index_config() -> IndexConfig {
    IndexConfig::one_component(C, EncodingScheme::Equality).with_codec(CodecKind::Ewah)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        // One worker per connection: the ingest and the query loop.
        workers: 2,
        queue_depth: 8,
        request_threads: 2,
        pool_pages: 8192,
        delta_budget_bytes: 8 << 20,
        // About 14 bytes of delta per row at C = 50: a merge every
        // 4700 rows, roughly once a second at the ingest rate.
        merge_threshold_bytes: 64 << 10,
        ..ServerConfig::default()
    }
}

struct Inputs {
    base: Vec<u64>,
    batches: Vec<Vec<u64>>,
    predicates: Vec<String>,
}

/// Base column, a schedule's worth of ingest batches for `seconds` of
/// load, and the query mix.
fn generate(seed: u64, seconds: u64) -> Inputs {
    let base = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: ZIPF_Z,
        seed: sub_seed(seed, 1),
    }
    .generate()
    .values;
    let n_batches = (RATE * (seconds + 5) as f64) as usize;
    let appended = DatasetSpec {
        rows: n_batches * BATCH,
        cardinality: C,
        zipf_z: ZIPF_Z,
        seed: sub_seed(seed, 3),
    }
    .generate()
    .values;
    // Selective: values from the Zipf tail, none of the few values that
    // hold most rows.
    let mut rng = Rng::new(seed, 2);
    let predicates = (0..QUERIES)
        .map(|i| {
            let lo = SELECTIVE_FROM + rng.below(C - 3 - SELECTIVE_FROM);
            if i % 2 == 0 {
                format!("= {lo}")
            } else {
                format!("{lo}..{}", lo + 1 + rng.below(3))
            }
        })
        .collect();
    Inputs {
        base,
        batches: appended.chunks(BATCH).map(<[u64]>::to_vec).collect(),
        predicates,
    }
}

struct Monolith {
    inputs: Inputs,
    servers: Servers,
}

impl Monolith {
    fn server(&self) -> &Server {
        &self.servers.0[0]
    }
}

fn setup(seed: u64, seconds: u64) -> Result<Monolith, String> {
    let inputs = generate(seed, seconds);
    let index = BitmapIndex::build(&inputs.base, &index_config());
    let server = Server::start(index, "127.0.0.1:0", server_config())
        .map_err(|e| format!("start server: {e}"))?;
    Ok(Monolith {
        inputs,
        servers: Servers(vec![server]),
    })
}

/// Rows each predicate selects in an index rebuilt over `column`.
fn oracle(column: &[u64], predicates: &[String]) -> Result<Vec<Vec<u64>>, String> {
    let mut index = BitmapIndex::build(column, &index_config());
    let mut pool = BufferPool::new(8192);
    predicates
        .iter()
        .map(|p| {
            let q = Query::parse(p, C).map_err(|e| format!("predicate {p}: {e}"))?;
            let r = index.evaluate_detailed(
                &q,
                &mut pool,
                EvalStrategy::ComponentWise,
                &CostModel::default(),
            );
            Ok(r.bitmap.to_positions().iter().map(|&p| p as u64).collect())
        })
        .collect()
}

/// Every predicate's answer from the server must equal `expected`.
fn check_rows(server: &Server, predicates: &[String], expected: &[Vec<u64>]) -> Result<(), String> {
    let mut client = drive::connect(server)?;
    for (p, want) in predicates.iter().zip(expected) {
        let got = client
            .query(p, EvalDomain::Auto, 0)
            .map_err(|e| format!("check {p}: {e}"))?;
        if &got.rows != want {
            return Err(format!(
                "{p}: server returned {} rows, the rebuilt index {}",
                got.rows.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// What the timed checks need: for query `q`, rows matching in the base
/// column and in the first `b` ingest batches.
struct Expect {
    base: Vec<u64>,
    prefix: Vec<Vec<u64>>,
}

impl Expect {
    fn new(inputs: &Inputs, base_counts: &[usize]) -> Result<Expect, String> {
        let mut prefix = Vec::with_capacity(QUERIES);
        for p in &inputs.predicates {
            let q = Query::parse(p, C).map_err(|e| format!("predicate {p}: {e}"))?;
            let mut acc = 0u64;
            let mut row = Vec::with_capacity(inputs.batches.len() + 1);
            row.push(0);
            for batch in &inputs.batches {
                acc += batch.iter().filter(|&&v| q.matches(v)).count() as u64;
                row.push(acc);
            }
            prefix.push(row);
        }
        Ok(Expect {
            base: base_counts.iter().map(|&n| n as u64).collect(),
            prefix,
        })
    }

    /// A reply of `rows` to query `q` is right if it saw every batch
    /// acknowledged before it was sent and none not yet sent when it
    /// returned: ingest batches are absorbed whole, in order.
    fn admits(&self, q: usize, rows: u64, acked_before: usize, sent_after: usize) -> bool {
        let lo = self.base[q] + self.prefix[q][acked_before];
        let hi = self.base[q] + self.prefix[q][sent_after];
        (lo..=hi).contains(&rows)
    }
}

/// Ingest progress shared by the two loops and kept across phases.
#[derive(Default)]
struct Progress {
    /// Batches handed to the socket (the one in flight included).
    sent: AtomicUsize,
    /// Batches acknowledged.
    acked: AtomicUsize,
}

/// What the open-loop ingest measured.
struct IngestRun {
    latencies: Latencies,
    lateness: Latencies,
    tally: Tally,
    rows: u64,
    elapsed: Duration,
    peak_delta_rows: u64,
    /// A batch failed untyped, so whether it landed is unknown.
    broken: bool,
}

fn ingest_loop(
    mono: &Monolith,
    progress: &Progress,
    run_for: Duration,
) -> Result<IngestRun, String> {
    let mut client = drive::connect(mono.server())?;
    let schedule = OpenLoop::new(RATE);
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    let mut tally = Tally::default();
    let mut peak_delta_rows = 0;
    let mut broken = false;
    let started = Instant::now();
    let mut slot = 0u64;
    while schedule.due(slot) < run_for {
        let due = schedule.due(slot);
        let now = started.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
        let b = progress.acked.load(Ordering::SeqCst);
        let Some(batch) = mono.inputs.batches.get(b) else {
            return Err("ingest schedule outran the generated batches".into());
        };
        let sent_at = started.elapsed();
        progress.sent.store(b + 1, Ordering::SeqCst);
        let reply = client.ingest(batch);
        let acked_at = started.elapsed();
        let total = (ROWS + (b + 1) * BATCH) as u64;
        let outcome = Outcome::of(&reply, |a| {
            a.appended == BATCH as u64 && a.total_rows == total
        });
        tally.record(outcome);
        match (outcome, reply) {
            (Outcome::Ok | Outcome::Wrong, Ok(ack)) => {
                progress.acked.store(b + 1, Ordering::SeqCst);
                let (latency, late) = schedule.timing(slot, sent_at, acked_at);
                latencies.push(latency.as_secs_f64() * 1e3);
                lateness.push(late.as_secs_f64() * 1e3);
                peak_delta_rows = peak_delta_rows.max(ack.delta_rows);
            }
            // A typed refusal left the delta untouched: the same batch
            // goes out in the next slot.
            (Outcome::Refused, _) => {}
            (_, reply) => {
                eprintln!("ingest batch {b} failed: {:?}", reply.err());
                broken = true;
                break;
            }
        }
        slot += 1;
    }
    let elapsed = started.elapsed();
    Ok(IngestRun {
        rows: (latencies.len() * BATCH) as u64,
        latencies: Latencies::new(latencies),
        lateness: Latencies::new(lateness),
        tally,
        elapsed,
        peak_delta_rows,
        broken,
    })
}

/// Runs the ingest loop and the query loop side by side for `run_for`.
fn mixed(
    mono: &Monolith,
    expect: &Expect,
    progress: &Progress,
    run_for: Duration,
) -> Result<(drive::Phase, IngestRun), String> {
    let mut client = drive::connect(mono.server())?;
    let predicates = &mono.inputs.predicates;
    let op = move |i: u64| {
        let q = i as usize % QUERIES;
        let acked_before = progress.acked.load(Ordering::SeqCst);
        let reply = client.query(&predicates[q], EvalDomain::Auto, 0);
        let sent_after = progress.sent.load(Ordering::SeqCst);
        if let Err(e) = &reply {
            eprintln!("query {q} failed: {e}");
        }
        Outcome::of(&reply, |r| {
            expect.admits(q, r.rows.len() as u64, acked_before, sent_after)
        })
    };
    std::thread::scope(|scope| {
        let ingest = scope.spawn(|| ingest_loop(mono, progress, run_for));
        let queries = drive::closed_loop(vec![op], run_for);
        let ingest = ingest.join().expect("ingest thread panicked")?;
        Ok((queries, ingest))
    })
}

/// Runs the write path for `seconds` on inputs from `seed` and adds its
/// metrics, checks and tally to `report`.
pub fn measure(seed: u64, seconds: u64, report: &mut Report) -> Result<(), String> {
    let mono = setup(seed, seconds)?;
    report.meta(
        "write_path",
        format!(
            "{{\"rows\": {ROWS}, \"cardinality\": {C}, \"zipf_z\": {ZIPF_Z}, \"encoding\": \"E\", \
             \"codec\": \"ewah\", \"shards\": 1, \"connections\": 2, \
             \"ingest\": {{\"loop\": \"open\", \"batches_per_s\": {RATE}, \"rows_per_batch\": {BATCH}}}, \
             \"queries\": \"{QUERIES} equality and 2-4 value ranges over values >= {SELECTIVE_FROM}\", \
             \"server\": {}}}",
            drive::server_config_json(&server_config())
        ),
    );

    // Correctness gate, before timing: the served index answers as an
    // index built in process over the same column.
    let expected = oracle(&mono.inputs.base, &mono.inputs.predicates)?;
    check_rows(mono.server(), &mono.inputs.predicates, &expected)
        .map_err(|e| format!("write path pre-check: {e}"))?;
    let counts: Vec<usize> = expected.iter().map(Vec::len).collect();
    let expect = Expect::new(&mono.inputs, &counts)?;
    let progress = Progress::default();

    let registry = [mono.server().registry()];
    let before = Counters::read(&registry);
    let (queries, ingest) = mixed(&mono, &expect, &progress, Duration::from_secs(seconds))?;
    let counters = Counters::read(&registry).since(&before);
    report.note(format!(
        "write path: queries {:.1} qps, {}",
        queries.ok_per_s(),
        queries.latencies.describe()
    ));
    report.note(format!(
        "write path: {:.0} rows/s acknowledged, latency from due time {}, generator lateness {}, \
         peak delta {} rows, {} background merges",
        ingest.rows as f64 / ingest.elapsed.as_secs_f64(),
        ingest.latencies.describe(),
        ingest.lateness.describe(),
        ingest.peak_delta_rows,
        counters.merges
    ));

    // Correctness after the run: main ∪ delta equals an index rebuilt
    // over the base column plus every acknowledged batch, on the query
    // mix and on every single value.
    let acked = progress.acked.load(Ordering::SeqCst);
    let mut column = mono.inputs.base.clone();
    for batch in &mono.inputs.batches[..acked] {
        column.extend_from_slice(batch);
    }
    let mut checks = mono.inputs.predicates.clone();
    checks.extend((0..C).map(|v| format!("= {v}")));
    let rebuilt = oracle(&column, &checks)?;
    if let Err(e) = check_rows(mono.server(), &checks, &rebuilt) {
        report.correct = false;
        report.note(format!("write path post-run check failed: {e}"));
    }
    if ingest.broken {
        report.correct = false;
        report.note("an ingest batch failed untyped; whether it landed is unknown");
    }
    report.tally.merge(queries.tally);
    report.tally.merge(ingest.tally);

    report.metric(
        "ingest.rows_per_s",
        ingest.rows as f64 / ingest.elapsed.as_secs_f64(),
    );
    report.metric(
        "ingest.p50_ms",
        ingest.latencies.p50().ok_or("no acknowledged batch")?,
    );
    report.metric(
        "ingest.p99_ms",
        ingest
            .latencies
            .p99()
            .ok_or("fewer than 1000 ingest batches for p99")?,
    );
    report.metric(
        "ingest.lateness_p99_ms",
        ingest
            .lateness
            .p99()
            .ok_or("fewer than 1000 ingest batches for p99")?,
    );
    report.metric("core.delta.merges", counters.merges as f64);
    report.metric("core.delta.peak_rows", ingest.peak_delta_rows as f64);
    replay_delta(&mono, report)
}

/// Times the delta layers through their public functions: absorb into a
/// replica delta, evaluation over main alone and over main ∪ delta, and
/// the server's own merge cycle on a replica handler.
fn replay_delta(mono: &Monolith, report: &mut Report) -> Result<(), String> {
    let config = server_config();
    let cost = CostModel::default();
    let executor = ParallelExecutor::new(config.request_threads);
    let pool = ShardedBufferPool::new(config.pool_pages, config.workers.max(2));
    let main = BitmapIndex::build(&mono.inputs.base, &index_config());
    // Queries meet a delta half a merge threshold deep on average.
    let mut depth = 0;
    let mut probe = DeltaIndex::for_index(&main, config.delta_budget_bytes);
    while probe.bytes_used() < config.merge_threshold_bytes / 2 {
        probe
            .absorb(&mono.inputs.batches[depth])
            .map_err(|e| format!("replica absorb: {e}"))?;
        depth += 1;
    }
    let batches = &mono.inputs.batches[..depth];
    let absorb_rows = (batches.len() * BATCH) as f64;
    let (absorb_us, delta) = replay::time_us(REPS, || {
        let mut delta = DeltaIndex::for_index(&main, config.delta_budget_bytes);
        for b in batches {
            delta.absorb(b).expect("replica delta has room");
        }
        delta
    });
    report.metric(
        "core.delta.absorb_ns_per_row",
        absorb_us * 1e3 / absorb_rows,
    );

    // The server's merge cycle on a replica handler, fed through its
    // public request interface.
    let handler = IndexHandler::new(
        BitmapIndex::build(&mono.inputs.base, &index_config()),
        &config,
    );
    let mut merge_rates = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        for b in batches {
            let values = b.clone();
            match handler.handle(Request::Ingest { values }, &RequestMeta::default()) {
                Response::Ingested { .. } => {}
                other => return Err(format!("replica ingest: {other:?}")),
            }
        }
        let started = Instant::now();
        let merged = handler.merge_once();
        merge_rates.push(merged as f64 / started.elapsed().as_secs_f64());
    }
    report.metric(
        "core.delta.merge_rows_per_s",
        crate::stats::median(&merge_rates),
    );
    report.note(format!(
        "replica delta: {} rows; merge timed on {} rows per cycle",
        delta.rows(),
        batches.len() * BATCH
    ));

    let queries: Vec<Query> = mono.inputs.predicates[..REPLAYED]
        .iter()
        .map(|p| Query::parse(p, C).map_err(|e| format!("predicate {p}: {e}")))
        .collect::<Result<_, _>>()?;
    executor.execute(&main, &queries, &pool, &cost);
    let mut overlay_us = 0.0;
    for q in &queries {
        let one = std::slice::from_ref(q);
        let (main_us, _) = replay::time_us(REPS, || executor.execute(&main, one, &pool, &cost));
        let (both_us, _) = replay::time_us(REPS, || {
            executor
                .execute_full_delta(
                    &main,
                    Some(&delta),
                    one,
                    &pool,
                    &cost,
                    &Tracer::disabled(),
                    None,
                    None,
                )
                .expect("no deadline")
        });
        overlay_us += (both_us - main_us).max(0.0);
    }
    report.metric("core.delta.overlay_us", overlay_us / queries.len() as f64);
    Ok(())
}
