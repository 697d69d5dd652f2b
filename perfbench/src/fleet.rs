//! `fleet_count`: seeded star-schema COUNT queries (and/or/not over
//! four attributes mixing E, I and EI* encodings, EWAH codec), routed
//! over two catalog shards whose buffer pools hold only part of their
//! stored bitmaps. Each reply is a few bytes, so planning, per-literal
//! evaluation, codec decode, page fetch and eviction carry the work:
//! the bypass workload for any change to the row-reply format.

use std::time::Duration;

use bix_core::{
    BitmapRef, Catalog, CodecKind, CostModel, EncodingScheme, EvalDomain, IndexConfig,
    IndexedTable, ParallelExecutor, Planner, ShardedBufferPool, TableQuery, TableSchema,
};
use bix_server::{Client, Response, Router, RouterConfig, Server, ServerConfig};
use bix_telemetry::TraceContext;
use bix_workload::StarSchemaSpec;

use crate::drive::{self, Counters, Servers};
use crate::replay::{self, Layers, ReplicaStore, REPLAYED, REPS};
use crate::stats::Outcome;
use crate::{peak_rss_mb, reset_peak_rss, sub_seed, Args, Report, Rng};

const ROWS: usize = 1_000_000;
const QUERIES: usize = 256;
const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
const SETUPS: usize = 5;
/// Each shard's pool holds this share of its stored bytes, so pages are
/// evicted and re-read while the workload runs.
const POOL_SHARE: f64 = 0.25;

/// (attribute, cardinality, encoding). Quantity takes values 1..=100.
const ATTRS: [(&str, u64, EncodingScheme); 4] = [
    ("region", 8, EncodingScheme::Equality),
    ("store", 48, EncodingScheme::Interval),
    ("discount", 50, EncodingScheme::EqualityIntervalStar),
    ("quantity", 101, EncodingScheme::Interval),
];

fn config(attr: usize) -> IndexConfig {
    let (_, cardinality, scheme) = ATTRS[attr];
    IndexConfig::one_component(cardinality, scheme).with_codec(CodecKind::Ewah)
}

fn shard_config(shard: usize, pool_pages: usize) -> ServerConfig {
    ServerConfig {
        // As in routed_rows: a worker per concurrent leg, one for probes.
        workers: CONNECTIONS + 1,
        queue_depth: 16,
        request_threads: 2,
        pool_pages,
        shard_id: shard as u16,
        ..ServerConfig::default()
    }
}

/// Pages a pool gets for an index of `stored_bytes`.
fn pool_pages(stored_bytes: usize) -> usize {
    ((stored_bytes as f64 * POOL_SHARE / 8192.0).ceil() as usize).max(4)
}

/// One random single-attribute selection on attribute `attr`.
fn literal(rng: &mut Rng, attr: usize) -> String {
    let (name, c, _) = ATTRS[attr];
    // Quantity's domain starts at 1.
    let lo = u64::from(attr == 3);
    let kind = rng.below(4);
    let mut v = || lo + rng.below(c - lo);
    match kind {
        0 => format!("{name} = {}", v()),
        1 => format!("{name} in {{{}, {}, {}}}", v(), v(), v()),
        2 => format!("{name} <= {}", v()),
        _ => format!("{name} >= {}", v()),
    }
}

/// A seeded boolean expression over three or four distinct attributes.
fn expression(rng: &mut Rng) -> String {
    let mut order = [0usize, 1, 2, 3];
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let [a, b, c, d] = order.map(|attr| literal(rng, attr));
    match rng.below(6) {
        0 => format!("{a} and {b} and {c}"),
        1 => format!("{a} and ({b} or {c})"),
        2 => format!("({a} or {b}) and not {c}"),
        3 => format!("{a} and {b} and ({c} or not {d})"),
        4 => format!("({a} and {b}) or ({c} and not {d})"),
        _ => format!("not ({a} or {b}) and {c}"),
    }
}

struct Inputs {
    columns: Vec<Vec<u64>>,
    expressions: Vec<String>,
}

fn generate(seed: u64) -> Inputs {
    let star = StarSchemaSpec {
        rows: ROWS,
        seed: sub_seed(seed, 1),
        ..StarSchemaSpec::default()
    }
    .generate();
    let mut rng = Rng::new(seed, 2);
    Inputs {
        columns: vec![star.region, star.store, star.discount, star.quantity],
        expressions: (0..QUERIES).map(|_| expression(&mut rng)).collect(),
    }
}

fn build_table(inputs: &Inputs, rows: std::ops::Range<usize>) -> IndexedTable {
    let mut table = IndexedTable::new(rows.len());
    for (attr, column) in inputs.columns.iter().enumerate() {
        table.add_attribute(ATTRS[attr].0, &column[rows.clone()], config(attr));
    }
    table
}

struct Fleet {
    inputs: Inputs,
    stored_bytes: usize,
    pool_pages: Vec<usize>,
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

/// Data generation, catalog build, shard and router start-up.
fn setup(seed: u64) -> Result<Fleet, String> {
    let inputs = generate(seed);
    let mut stored_bytes = 0;
    let mut pools = Vec::with_capacity(SHARDS);
    let mut shards = Vec::with_capacity(SHARDS);
    for i in 0..SHARDS {
        let table = build_table(&inputs, drive::shard_rows(ROWS, SHARDS, i));
        stored_bytes += table.space_bytes();
        let pages = pool_pages(table.space_bytes());
        pools.push(pages);
        shards.push(
            Server::start_catalog(
                Catalog::from_table(table),
                "127.0.0.1:0",
                shard_config(i, pages),
            )
            .map_err(|e| format!("start catalog shard {i}: {e}"))?,
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
        pool_pages: pools,
        servers: Servers(servers),
    })
}

/// COUNT of every expression from a monolith table, planned and
/// executed in process.
fn oracle(inputs: &Inputs) -> Result<Vec<u64>, String> {
    let mut table = build_table(inputs, 0..ROWS);
    let schema = table.schema();
    inputs
        .expressions
        .iter()
        .map(|text| {
            let plan =
                Planner::plan_text(&schema, text).map_err(|e| format!("plan {text}: {e}"))?;
            Ok(table.execute_plan(&plan, &CostModel::default()).count())
        })
        .collect()
}

fn load(
    fleet: &Fleet,
    counts: &[u64],
    run_for: Duration,
    traced: bool,
) -> Result<drive::Phase, String> {
    let mut ops = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        let mut client = drive::connect(fleet.front())?;
        let expressions = &fleet.inputs.expressions;
        ops.push(move |i: u64| {
            let q = (c * QUERIES / CONNECTIONS + i as usize) % QUERIES;
            if traced {
                client.set_trace(TraceContext::generate());
            }
            let reply = client.table_count(&expressions[q], EvalDomain::Auto, 0);
            if let Err(e) = &reply {
                eprintln!("count {q} failed: {e}");
            }
            Outcome::of(&reply, |r| r.count == counts[q])
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
    let attrs: Vec<String> = ATTRS
        .iter()
        .map(|(name, c, scheme)| format!("\"{name}: C={c} {scheme:?}\""))
        .collect();
    report.meta("attributes", format!("[{}]", attrs.join(", ")));
    report.meta("codec", "\"ewah\"");
    report.meta(
        "query_mix",
        format!("\"{QUERIES} seeded and/or/not COUNT expressions\""),
    );
    report.meta("shards", SHARDS.to_string());
    report.meta("connections", CONNECTIONS.to_string());
    report.meta("client_threads", CONNECTIONS.to_string());
    for (i, &pages) in fleet.pool_pages.iter().enumerate() {
        let key = if i == 0 {
            "shard0_server"
        } else {
            "shard1_server"
        };
        report.meta(key, drive::server_config_json(&shard_config(i, pages)));
    }
    report.meta("pool_share_of_stored_bytes", POOL_SHARE.to_string());
    report.meta(
        "router_server",
        drive::server_config_json(&drive::front_config(CONNECTIONS)),
    );
    report.meta(
        "router",
        drive::router_config_json(&RouterConfig::default()),
    );

    // Correctness gate, before timing: every routed COUNT equals the
    // monolith catalog's.
    // The client is dropped before timing: a server worker serves one
    // connection for as long as it stays open.
    let expected = oracle(&fleet.inputs)?;
    let mut client = drive::connect(fleet.front())?;
    for (i, text) in fleet.inputs.expressions.iter().enumerate() {
        let reply = client
            .table_count(text, EvalDomain::Auto, 0)
            .map_err(|e| format!("pre-check q{i} ({text}): {e}"))?;
        if reply.count != expected[i] {
            return Err(format!(
                "pre-check q{i} ({text}): routed count {} differs from the monolith's {}",
                reply.count, expected[i]
            ));
        }
    }
    drop(client);
    let mean = expected.iter().sum::<u64>() as f64 / expected.len() as f64;
    report.note(format!("mean COUNT: {mean:.0} of {ROWS} rows"));

    let run_for = Duration::from_secs(args.seconds);
    if !args.trace {
        reset_peak_rss()?;
        let phase = load(&fleet, &expected, run_for, false)?;
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
    let untraced = load(&fleet, &expected, run_for, false)?;
    let counters = Counters::read(&registries).since(&before);
    let traced = load(&fleet, &expected, run_for / 2, true)?;
    let layers = replay_layers(&fleet, &mut report)?;
    replay::report_common(
        &mut report,
        &layers,
        &[
            "core.plan.plan_us",
            "core.rewrite.rewrite_us",
            "core.parallel.eval_us",
            "server.protocol.encode_us",
            "server.protocol.decode_us",
            "server.router.hop_us",
        ],
        &counters,
        &untraced,
        &traced,
    );
    report.tally = untraced.tally;
    report.tally.merge(traced.tally);
    Ok(report)
}

/// Leaves each literal of `plan` reads in `table`, keyed by attribute.
fn plan_keys(table: &IndexedTable, plan: &bix_core::Plan) -> (f64, Vec<(usize, BitmapRef)>) {
    let lits = plan.distinct_literals();
    let (rewrite_us, constituents) = replay::time_us(REPS, || {
        lits.iter()
            .map(|lit| {
                let index = table.index_at(lit.attr).expect("planned attribute exists");
                (lit.attr, index.rewrite_constituents(&lit.query))
            })
            .collect::<Vec<_>>()
    });
    let keys = constituents
        .iter()
        .flat_map(|(attr, c)| replay::leaves(c).into_iter().map(move |r| (*attr, r)))
        .collect();
    (rewrite_us, keys)
}

/// Replays every expression through each layer's public functions, on
/// replicas of the shard catalogs and against the live servers.
fn replay_layers(fleet: &Fleet, report: &mut Report) -> Result<Layers, String> {
    let cost = CostModel::default();
    let executor = ParallelExecutor::new(shard_config(0, 0).request_threads);
    let pool_shards = shard_config(0, 0).workers.max(2);
    let mut replicas: Vec<IndexedTable> = (0..SHARDS)
        .map(|i| build_table(&fleet.inputs, drive::shard_rows(ROWS, SHARDS, i)))
        .collect();
    let schema: TableSchema = replicas[0].schema();
    let expressions = &fleet.inputs.expressions[..REPLAYED];
    let plans: Vec<bix_core::Plan> = expressions
        .iter()
        .map(|t| Planner::plan_text(&schema, t).map_err(|e| format!("plan {t}: {e}")))
        .collect::<Result<_, _>>()?;
    let pools: Vec<ShardedBufferPool> = (0..SHARDS)
        .map(|i| ShardedBufferPool::new(fleet.pool_pages[i], pool_shards))
        .collect();
    let mut stores = Vec::with_capacity(SHARDS);
    for (i, replica) in replicas.iter_mut().enumerate() {
        let mut store = ReplicaStore::new(fleet.pool_pages[i], pool_shards);
        for plan in &plans {
            for lit in plan.distinct_literals() {
                let name = schema.attr(lit.attr).name.clone();
                let index = replica.index_mut(&name).expect("planned attribute exists");
                let refs = replay::leaves(&index.rewrite_constituents(&lit.query));
                store.add(lit.attr, index, &refs);
            }
        }
        stores.push(store);
    }
    // Warm the replica pools with one pass, as the servers' are warm.
    for (s, replica) in replicas.iter().enumerate() {
        for plan in &plans {
            executor.execute_plan(replica, plan, &pools[s], &cost);
            stores[s].fetch_decode(&plan_keys(replica, plan).1);
        }
    }

    let mut front = drive::connect(fleet.front())?;
    let mut direct: Vec<Client> = fleet
        .shards()
        .iter()
        .map(drive::connect)
        .collect::<Result<_, _>>()?;
    let mut layers = Layers::default();
    for (text, plan) in expressions.iter().zip(&plans) {
        let (parse_us, _) = replay::time_us(REPS, || TableQuery::parse(text, &schema));
        let (plan_us, _) = replay::time_us(REPS, || Planner::plan_text(&schema, text));
        let mut per_shard = Vec::with_capacity(SHARDS);
        for (s, replica) in replicas.iter().enumerate() {
            let (rewrite_us, keys) = plan_keys(replica, plan);
            let (eval_us, _) = replay::time_us(REPS, || {
                executor.execute_plan(replica, plan, &pools[s], &cost)
            });
            let (fetch_us, decode_us, bytes) = stores[s].fetch_decode(&keys);
            per_shard.push(vec![
                ("core.rewrite.rewrite_us", rewrite_us),
                ("core.parallel.eval_us", eval_us),
                ("storage.store.fetch_us", fetch_us),
                ("compress.codec.decode_us", decode_us),
                ("compress.codec.bytes_decoded_per_query", bytes as f64),
            ]);
        }
        let mut values = replay::slowest_shard(&per_shard);

        let mut direct_us: f64 = 0.0;
        let mut direct_sum = 0;
        for (s, client) in direct.iter_mut().enumerate() {
            let (us, reply) =
                replay::time_us(REPS, || client.table_count(text, EvalDomain::Auto, 0));
            direct_sum += reply.map_err(|e| format!("direct shard {s}: {e}"))?.count;
            direct_us = direct_us.max(us);
        }
        let (routed_us, routed) =
            replay::time_us(REPS, || front.table_count(text, EvalDomain::Auto, 0));
        let routed = routed.map_err(|e| format!("routed replay: {e}"))?;
        if direct_sum != routed.count {
            report.correct = false;
            report.note(format!(
                "replay: shard counts for {text} do not sum to the routed count"
            ));
        }
        values.extend([
            ("core.query.parse_us", parse_us),
            ("core.plan.plan_us", plan_us),
            ("core.plan.clauses_per_query", plan.clauses.len() as f64),
            (
                "core.plan.literals_per_query",
                plan.distinct_literals().len() as f64,
            ),
            ("server.router.hop_us", routed_us - direct_us),
            ("core.rewrite.scans_per_query", routed.scans as f64),
            (
                "core.eval.decompressions_per_query",
                routed.decompressions as f64,
            ),
        ]);
        values.extend(replay::reply_frame(Response::Count {
            count: routed.count,
            scans: routed.scans,
            decompressions: routed.decompressions,
        }));
        layers.add_query(&values);
    }
    Ok(layers)
}
