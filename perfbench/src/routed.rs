//! `routed_rows`: the paper's §7 membership mix over one Zipf column,
//! interval-encoded and BBC-compressed, split by row range over two
//! shard servers behind a router. Replies carry full row-id lists
//! (about a quarter of the rows), so reply materialisation, frame
//! encode + CRC, the socket, the router merge and client decode do
//! most of the work; the whole index sits in the buffer pools.

use std::time::Duration;

use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalDomain, EvalStrategy,
    IndexConfig, ParallelExecutor, Query, ShardedBufferPool,
};
use bix_server::{
    merge_replies, Client, Response, Router, RouterConfig, Server, ServerConfig, ShardReply,
};
use bix_telemetry::TraceContext;
use bix_workload::{DatasetSpec, QuerySetSpec};

use crate::drive::{self, Counters, Servers};
use crate::replay::{self, Layers, ReplicaStore, REPLAYED, REPS};
use crate::stats::Outcome;
use crate::{ingest, peak_rss_mb, reset_peak_rss, sub_seed, Args, Report};

const ROWS: usize = 200_000;
const C: u64 = 200;
const ZIPF_Z: f64 = 1.0;
const QUERIES: usize = 256;
const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
const SETUPS: usize = 5;

fn index_config() -> IndexConfig {
    IndexConfig::one_component(C, EncodingScheme::Interval).with_codec(CodecKind::Bbc)
}

fn shard_config(shard: usize) -> ServerConfig {
    ServerConfig {
        // One worker per concurrent router leg (the router dials a fresh
        // connection per leg, one leg per client loop) plus one for the
        // router's health probes.
        workers: CONNECTIONS + 1,
        queue_depth: 16,
        request_threads: 2,
        // 64 MiB of 8 KiB pages: far more than a shard's index, so the
        // index stays cached.
        pool_pages: 8192,
        shard_id: shard as u16,
        ..ServerConfig::default()
    }
}

/// The generated inputs.
struct Inputs {
    column: Vec<u64>,
    predicates: Vec<String>,
}

fn generate(seed: u64) -> Inputs {
    let column = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: ZIPF_Z,
        seed: sub_seed(seed, 1),
    }
    .generate()
    .values;
    let predicates = QuerySetSpec { n_int: 4, n_equ: 2 }
        .generate(C, QUERIES, sub_seed(seed, 2))
        .into_iter()
        .map(|g| {
            let values: Vec<String> = g.values().iter().map(u64::to_string).collect();
            format!("in:{}", values.join(","))
        })
        .collect();
    Inputs { column, predicates }
}

struct Fleet {
    inputs: Inputs,
    stored_bytes: usize,
    /// The router's front first, so it shuts down before its shards.
    servers: Servers,
}

impl Fleet {
    fn front(&self) -> &Server {
        &self.servers.0[0]
    }

    fn shards(&self) -> &[Server] {
        &self.servers.0[1..]
    }
}

/// Data generation, shard index build, shard and router start-up.
fn setup(seed: u64) -> Result<Fleet, String> {
    let inputs = generate(seed);
    let mut stored_bytes = 0;
    let mut shards = Vec::with_capacity(SHARDS);
    for i in 0..SHARDS {
        let index = BitmapIndex::build(
            &inputs.column[drive::shard_rows(ROWS, SHARDS, i)],
            &index_config(),
        );
        stored_bytes += index.space_bytes();
        shards.push(
            Server::start(index, "127.0.0.1:0", shard_config(i))
                .map_err(|e| format!("start shard {i}: {e}"))?,
        );
    }
    let addrs = shards.iter().map(|s| s.addr().to_string()).collect();
    let router = Router::new(addrs, RouterConfig::default());
    let front = Server::serve(
        std::sync::Arc::new(router),
        "127.0.0.1:0",
        drive::front_config(CONNECTIONS),
    )
    .map_err(|e| format!("start router: {e}"))?;
    let mut servers = vec![front];
    servers.extend(shards);
    Ok(Fleet {
        inputs,
        stored_bytes,
        servers: Servers(servers),
    })
}

/// Checks every routed reply against a monolith index over the whole
/// column, evaluated in process, row for row; returns each predicate's
/// row count.
fn precheck(fleet: &Fleet) -> Result<Vec<usize>, String> {
    let mut index = BitmapIndex::build(&fleet.inputs.column, &index_config());
    let mut pool = BufferPool::new(8192);
    // Dropped before timing: a server worker serves one connection for
    // as long as it stays open.
    let mut client = drive::connect(fleet.front())?;
    let mut counts = Vec::with_capacity(QUERIES);
    for (i, p) in fleet.inputs.predicates.iter().enumerate() {
        let q = Query::parse(p, C).map_err(|e| format!("predicate {p}: {e}"))?;
        let expected = index
            .evaluate_detailed(
                &q,
                &mut pool,
                EvalStrategy::ComponentWise,
                &CostModel::default(),
            )
            .bitmap
            .to_positions();
        let reply = client
            .query(p, EvalDomain::Auto, 0)
            .map_err(|e| format!("pre-check q{i}: {e}"))?;
        if !reply
            .rows
            .iter()
            .copied()
            .eq(expected.iter().map(|&r| r as u64))
        {
            return Err(format!(
                "pre-check q{i} ({p}): routed rows differ from the monolith"
            ));
        }
        counts.push(expected.len());
    }
    Ok(counts)
}

/// One closed loop per connection over the predicates, each reply's row
/// count checked against the oracle; `traced` samples every request.
fn load(
    fleet: &Fleet,
    counts: &[usize],
    run_for: Duration,
    traced: bool,
) -> Result<drive::Phase, String> {
    let mut ops = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        let mut client = drive::connect(fleet.front())?;
        let predicates = &fleet.inputs.predicates;
        ops.push(move |i: u64| {
            let q = (c * QUERIES / CONNECTIONS + i as usize) % QUERIES;
            if traced {
                client.set_trace(TraceContext::generate());
            }
            let reply = client.query(&predicates[q], EvalDomain::Auto, 0);
            if let Err(e) = &reply {
                eprintln!("query {q} failed: {e}");
            }
            Outcome::of(&reply, |r| r.rows.len() == counts[q])
        });
    }
    Ok(drive::closed_loop(ops, run_for))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (fleet, setup_s) = drive::repeated_setup(SETUPS, || setup(args.seed))?;
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.meta("rows", ROWS.to_string());
    report.meta("cardinality", C.to_string());
    report.meta("zipf_z", ZIPF_Z.to_string());
    report.meta("encoding", "\"I\"");
    report.meta("codec", "\"bbc\"");
    report.meta(
        "query_mix",
        format!("\"n_int 4, n_equ 2, {QUERIES} queries\""),
    );
    report.meta("shards", SHARDS.to_string());
    report.meta("connections", CONNECTIONS.to_string());
    report.meta("client_threads", CONNECTIONS.to_string());
    report.meta("shard_server", drive::server_config_json(&shard_config(0)));
    report.meta(
        "router_server",
        drive::server_config_json(&drive::front_config(CONNECTIONS)),
    );
    report.meta(
        "router",
        drive::router_config_json(&RouterConfig::default()),
    );

    // Correctness gate, before timing: every routed reply is the
    // monolith's answer row for row.
    let counts = precheck(&fleet)?;
    let mean_rows = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    report.note(format!("mean reply: {mean_rows:.0} row ids"));

    let run_for = Duration::from_secs(args.seconds);
    if !args.trace {
        reset_peak_rss()?;
        let phase = load(&fleet, &counts, run_for, false)?;
        report.note(format!("latency: {}", phase.latencies.describe()));
        report.metric("setup_s", setup_s);
        report.metric("query.qps", phase.ok_per_s());
        report.metric(
            "query.p50_ms",
            phase.latencies.p50().ok_or("no answered query")?,
        );
        report.metric(
            "query.p99_ms",
            phase
                .latencies
                .p99()
                .ok_or("fewer than 1000 answered queries for p99")?,
        );
        report.metric("ok_frac", 1.0 - phase.tally.failed_frac());
        report.metric(
            "index.bytes_per_row",
            fleet.stored_bytes as f64 / ROWS as f64,
        );
        report.metric("peak_rss_mb", peak_rss_mb());
        report.tally = phase.tally;
        return Ok(report);
    }

    let registries: Vec<_> = fleet.servers.0.iter().map(Server::registry).collect();
    let before = Counters::read(&registries);
    let untraced = load(&fleet, &counts, run_for, false)?;
    let counters = Counters::read(&registries).since(&before);
    let traced = load(&fleet, &counts, run_for / 2, true)?;
    let layers = replay_layers(&fleet, &mut report)?;
    report.tally = untraced.tally;
    report.tally.merge(traced.tally);
    // The write path runs after the read path's servers are done.
    drop(fleet);
    ingest::measure(args.seed, args.seconds, &mut report)?;
    replay::report_common(
        &mut report,
        &layers,
        &[
            "core.query.parse_us",
            "core.rewrite.rewrite_us",
            "core.parallel.eval_us",
            "bitvec.positions_us",
            "server.protocol.encode_us",
            "server.protocol.decode_us",
            "server.router.hop_us",
        ],
        &counters,
        &untraced,
        &traced,
    );
    Ok(report)
}

/// Replays every predicate through each layer's public functions, on
/// replicas of the shard indexes and against the live servers.
fn replay_layers(fleet: &Fleet, report: &mut Report) -> Result<Layers, String> {
    let cost = CostModel::default();
    let config = shard_config(0);
    let executor = ParallelExecutor::new(config.request_threads);
    let mut replicas: Vec<BitmapIndex> = (0..SHARDS)
        .map(|i| {
            BitmapIndex::build(
                &fleet.inputs.column[drive::shard_rows(ROWS, SHARDS, i)],
                &index_config(),
            )
        })
        .collect();
    let pools: Vec<ShardedBufferPool> = (0..SHARDS)
        .map(|_| ShardedBufferPool::new(config.pool_pages, config.workers.max(2)))
        .collect();
    let predicates = &fleet.inputs.predicates[..REPLAYED];
    let queries: Vec<Query> = predicates
        .iter()
        .map(|p| Query::parse(p, C).map_err(|e| format!("predicate {p}: {e}")))
        .collect::<Result<_, _>>()?;
    let mut stores = Vec::with_capacity(SHARDS);
    for replica in &mut replicas {
        let mut store = ReplicaStore::new(config.pool_pages, config.workers.max(2));
        for q in &queries {
            let refs = replay::leaves(&replica.rewrite_constituents(q));
            store.add(0, replica, &refs);
        }
        stores.push(store);
    }
    // Warm the replica pools the way the servers' pools are warm.
    for (s, replica) in replicas.iter().enumerate() {
        executor.execute(replica, &queries, &pools[s], &cost);
    }

    let mut front = drive::connect(fleet.front())?;
    let mut direct: Vec<Client> = fleet
        .shards()
        .iter()
        .map(drive::connect)
        .collect::<Result<_, _>>()?;
    let mut layers = Layers::default();
    for (p, q) in predicates.iter().zip(&queries) {
        let (parse_us, _) = replay::time_us(REPS, || Query::parse(p, C));
        let mut per_shard = Vec::with_capacity(SHARDS);
        for (s, replica) in replicas.iter().enumerate() {
            let (rewrite_us, constituents) =
                replay::time_us(REPS, || replica.rewrite_constituents(q));
            let keys: Vec<_> = replay::leaves(&constituents)
                .into_iter()
                .map(|r| (0, r))
                .collect();
            let (eval_us, batch) = replay::time_us(REPS, || {
                executor.execute(replica, std::slice::from_ref(q), &pools[s], &cost)
            });
            let (positions_us, _) =
                replay::time_us(REPS, || batch.results[0].bitmap.to_positions());
            let (fetch_us, decode_us, bytes) = stores[s].fetch_decode(&keys);
            per_shard.push(vec![
                ("core.rewrite.rewrite_us", rewrite_us),
                ("core.parallel.eval_us", eval_us),
                ("bitvec.positions_us", positions_us),
                ("storage.store.fetch_us", fetch_us),
                ("compress.codec.decode_us", decode_us),
                ("compress.codec.bytes_decoded_per_query", bytes as f64),
            ]);
        }
        let mut values = replay::slowest_shard(&per_shard);

        let mut shard_replies = Vec::with_capacity(SHARDS);
        let mut direct_us: f64 = 0.0;
        for (s, client) in direct.iter_mut().enumerate() {
            let (us, reply) = replay::time_us(REPS, || client.query(p, EvalDomain::Auto, 0));
            let reply = reply.map_err(|e| format!("direct shard {s}: {e}"))?;
            direct_us = direct_us.max(us);
            shard_replies.push(ShardReply {
                row_base: drive::shard_rows(ROWS, SHARDS, s).start as u64,
                replies: vec![reply],
            });
        }
        let (routed_us, routed) = replay::time_us(REPS, || front.query(p, EvalDomain::Auto, 0));
        let routed = routed.map_err(|e| format!("routed replay: {e}"))?;
        let (merge_us, merged) = replay::time_us(REPS, || merge_replies(1, &shard_replies));
        if merged[0].rows != routed.rows {
            report.correct = false;
            report.note(format!(
                "replay: merged shard replies for {p} differ from the routed reply"
            ));
        }
        values.extend([
            ("core.query.parse_us", parse_us),
            ("server.router.merge_us", merge_us),
            ("server.router.hop_us", routed_us - direct_us),
            ("core.rewrite.scans_per_query", routed.scans as f64),
            (
                "core.eval.decompressions_per_query",
                routed.decompressions as f64,
            ),
        ]);
        values.extend(replay::reply_frame(Response::Rows(routed)));
        layers.add_query(&values);
    }
    Ok(layers)
}
