//! Persistent router-to-shard links, over real sockets.
//!
//! The router keeps one pool of open links per shard and reuses them
//! across query legs. These tests pin down what that must never cost:
//!
//! 1. **Reuse.** Sequential fan-outs dial each shard once for its shape
//!    and once for its link, and the shards' own connection counters
//!    agree.
//! 2. **Closed links are invisible.** A link the shard closed while it
//!    sat idle — a restart on the same address, an idle timeout — is
//!    redialled inside the same attempt: no retry, no failure, no
//!    breaker trip, and the answer is still bit-identical.
//!    A link that fails after its request reached a worker (here, a
//!    handler panic answered with a typed error) is an ordinary,
//!    counted failure, not a free redial.
//! 3. **No starvation.** A shard pins a worker to each open connection,
//!    so the router pools at most `workers − 1` links, and legs past
//!    that dial a connection each: a direct client and the health
//!    prober are still served, and no leg fails for want of a link.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bix_core::MetricsRegistry;
use bix_core::{BitmapIndex, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::{
    Client, ErrorCode, IndexHandler, Request, RequestMeta, Response, RetryPolicy, Router,
    RouterConfig, RowsReply, ServeHandler, Server, ServerConfig, ShardState, SupervisorConfig,
};
use bix_workload::{DatasetSpec, QuerySetSpec};

const CARDINALITY: u64 = 24;
const ROWS: usize = 6_000;
const BOUNDS: [usize; 3] = [0, 2_500, ROWS];

fn corpus() -> Vec<u64> {
    DatasetSpec {
        rows: ROWS,
        cardinality: CARDINALITY,
        zipf_z: 1.0,
        seed: 0x11e5,
    }
    .generate()
    .values
}

fn batch() -> Vec<String> {
    QuerySetSpec { n_int: 2, n_equ: 1 }
        .generate(CARDINALITY, 6, 0x5a11)
        .iter()
        .map(|q| {
            let vals: Vec<String> = q.values().iter().map(u64::to_string).collect();
            format!("in:{}", vals.join(","))
        })
        .collect()
}

fn build_index(column: &[u64]) -> BitmapIndex {
    BitmapIndex::build(
        column,
        &IndexConfig::one_component(CARDINALITY, EncodingScheme::Interval),
    )
}

fn monolith_oracle(column: &[u64], predicates: &[String]) -> Vec<RowsReply> {
    let handler = IndexHandler::new(build_index(column), &ServerConfig::default());
    match handler.handle(
        Request::Batch {
            domain: EvalDomain::Auto,
            deadline_ms: 0,
            predicates: predicates.to_vec(),
        },
        &RequestMeta::default(),
    ) {
        Response::BatchRows(replies) => replies,
        other => panic!("oracle evaluation failed: {other:?}"),
    }
}

fn shard_config(shard: usize) -> ServerConfig {
    ServerConfig {
        shard_id: shard as u16,
        ..ServerConfig::default()
    }
}

fn start_shard(column: &[u64], shard: usize, addr: &str, config: ServerConfig) -> Server {
    let slice = &column[BOUNDS[shard]..BOUNDS[shard + 1]];
    // Retry briefly: a just-released address may be held for a moment.
    for _ in 0..50 {
        if let Ok(server) = Server::start(build_index(slice), addr, config.clone()) {
            return server;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("could not bind shard {shard} on {addr}")
}

fn start_shards(column: &[u64], config: impl Fn(usize) -> ServerConfig) -> Vec<Server> {
    (0..BOUNDS.len() - 1)
        .map(|i| start_shard(column, i, "127.0.0.1:0", config(i)))
        .collect()
}

fn router_config() -> RouterConfig {
    RouterConfig {
        retry: RetryPolicy::standard(0x11e5),
        io_timeout: Duration::from_millis(2_000),
        // Tests sweep by hand.
        health_interval: Duration::ZERO,
        supervisor: SupervisorConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(30),
        },
        ..RouterConfig::default()
    }
}

fn fan_out(router: &Router, predicates: &[String], deadline_ms: u32) -> Response {
    router.handle(
        Request::Batch {
            domain: EvalDomain::Auto,
            deadline_ms,
            predicates: predicates.to_vec(),
        },
        &RequestMeta::default(),
    )
}

fn run_batch(router: &Router, predicates: &[String]) -> Vec<RowsReply> {
    match fan_out(router, predicates, 4_000) {
        Response::BatchRows(replies) => replies,
        other => panic!("fan-out failed: {other:?}"),
    }
}

fn assert_bit_identical(got: &[RowsReply], want: &[RowsReply]) {
    assert_eq!(got.len(), want.len(), "reply count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.rows, w.rows, "predicate {i} rows diverge");
    }
}

/// The value of the unlabelled metric `name` in a Prometheus scrape.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some(name)).then(|| parts.next())?
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from scrape:\n{text}"))
}

fn router_metric(router: &Router, name: &str) -> f64 {
    metric(&router.registry().snapshot().to_prometheus(), name)
}

fn shard_metric(shard: &Server, name: &str) -> f64 {
    metric(&shard.registry().snapshot().to_prometheus(), name)
}

/// Asserts no shard leg ever retried or failed, and every breaker is up.
fn assert_untroubled(router: &Router, shards: usize) {
    for i in 0..shards {
        for what in ["retries", "failures", "timeouts"] {
            let name = format!("bix_route_shard_{i}_{what}_total");
            assert_eq!(router_metric(router, &name), 0.0, "{name}");
        }
        assert_eq!(router.supervisor().state(i), ShardState::Up, "shard {i}");
    }
}

#[test]
fn sequential_fan_outs_reuse_one_link_per_shard() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let shards = start_shards(&column, shard_config);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    let router = Router::new(addrs, router_config());
    for _ in 0..50 {
        assert_bit_identical(&run_batch(&router, &predicates), &oracle);
    }
    for (i, shard) in shards.iter().enumerate() {
        let dials = router_metric(&router, &format!("bix_route_shard_{i}_dials_total"));
        assert!(
            dials <= 2.0,
            "shard {i}: {dials} dials for 50 fan-outs (want shape learning + one link)"
        );
        assert_eq!(
            shard_metric(shard, "bix_server_connections_total"),
            dials,
            "shard {i} accepted a connection per router dial"
        );
        assert_eq!(
            router_metric(&router, &format!("bix_route_shard_{i}_idle_links")),
            1.0,
            "shard {i}: the link is back in the pool"
        );
    }
    assert_untroubled(&router, shards.len());

    // A sweep closes links idle for a whole health interval (every
    // idle link, at an interval of zero); the next fan-out redials.
    router.health_sweep();
    for i in 0..shards.len() {
        let idle = format!("bix_route_shard_{i}_idle_links");
        assert_eq!(router_metric(&router, &idle), 0.0, "{idle}");
    }
    let before = router_metric(&router, "bix_route_shard_0_dials_total");
    assert_bit_identical(&run_batch(&router, &predicates), &oracle);
    assert_eq!(
        router_metric(&router, "bix_route_shard_0_dials_total"),
        before + 1.0
    );

    drop(router);
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn a_shard_restarted_behind_warm_links_is_redialled_without_a_retry() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let mut shards = start_shards(&column, shard_config);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    let router = Router::new(addrs.clone(), router_config());
    for _ in 0..3 {
        assert_bit_identical(&run_batch(&router, &predicates), &oracle);
    }
    let before = router_metric(&router, "bix_route_shard_1_dials_total");

    // Restart shard 1 on its address while the router's link to it sits
    // idle in the pool: the old link is now dead.
    shards.remove(1).shutdown();
    shards.insert(1, start_shard(&column, 1, &addrs[1], shard_config(1)));

    assert_bit_identical(&run_batch(&router, &predicates), &oracle);
    assert_untroubled(&router, shards.len());
    assert_eq!(
        router_metric(&router, "bix_route_shard_1_dials_total"),
        before + 1.0,
        "the dead link is replaced by exactly one fresh dial"
    );

    drop(router);
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn a_link_closed_by_the_shard_idle_timeout_is_redialled_without_a_retry() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let shards = start_shards(&column, |i| ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..shard_config(i)
    });
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    let router = Router::new(addrs, router_config());
    assert_bit_identical(&run_batch(&router, &predicates), &oracle);
    // Longer than the shards' idle budget: they close the pooled links.
    std::thread::sleep(Duration::from_millis(300));
    assert_bit_identical(&run_batch(&router, &predicates), &oracle);
    assert_untroubled(&router, shards.len());

    drop(router);
    for shard in shards {
        shard.shutdown();
    }
}

/// Polls `probe` until it holds, for up to two seconds.
fn eventually(mut probe: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + Duration::from_secs(2);
    while Instant::now() < until {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    probe()
}

#[test]
fn the_link_cap_leaves_a_worker_for_direct_clients_and_the_prober() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    // Two workers per shard: the router may pool one link.
    let shards = start_shards(&column, |i| ServerConfig {
        workers: 2,
        ..shard_config(i)
    });
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let router = Router::new(
        addrs,
        RouterConfig {
            // Longer than the test: a sweep keeps the router's links.
            health_interval: Duration::from_secs(60),
            ..router_config()
        },
    );

    // Three concurrent request loops with short deadlines want three
    // links per shard. One is pooled; the others dial a connection per
    // leg and close it, so a direct client is still served and no leg
    // waits inside the router or fails.
    let ping = |shard: &Server| {
        let started = Instant::now();
        let mut direct =
            Client::connect_with_timeout(shard.addr(), Duration::from_secs(2)).expect("dial");
        direct
            .ping()
            .expect("a direct ping is served beside the router's link");
        started.elapsed()
    };
    std::thread::scope(|scope| {
        let loops: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..20 {
                        match fan_out(&router, &predicates, 300) {
                            Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
                            other => panic!("a leg past the cap failed: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for shard in &shards {
            assert!(ping(shard) < Duration::from_secs(1));
        }
        for l in loops {
            l.join().expect("request loop");
        }
    });
    assert_untroubled(&router, shards.len());
    for (i, shard) in shards.iter().enumerate() {
        // At most one pooled link: once the loops stop, it is the only
        // router connection the shard still serves.
        let idle = router_metric(&router, &format!("bix_route_shard_{i}_idle_links"));
        assert_eq!(idle, 1.0, "shard {i}: one pooled link under a cap of one");
        assert!(
            eventually(|| shard_metric(shard, "bix_server_inflight") == 1.0),
            "shard {i}: the per-leg connections past the cap were closed"
        );
    }

    // The router's link stays open (younger than the health interval),
    // and the prober's pings take the free worker.
    for shard in &shards {
        assert!(ping(shard) < Duration::from_secs(1));
    }
    for _ in 0..5 {
        router.health_sweep();
        assert_bit_identical(&run_batch(&router, &predicates), &oracle);
    }
    for i in 0..shards.len() {
        assert_eq!(
            router_metric(&router, &format!("bix_route_shard_{i}_idle_links")),
            1.0,
            "shard {i}: sweeps keep a young link"
        );
    }
    assert_untroubled(&router, shards.len());

    drop(router);
    for shard in shards {
        shard.shutdown();
    }
}

/// An index shard whose handler panics on the next batch once armed.
struct PanicOnce {
    inner: IndexHandler,
    armed: AtomicBool,
}

impl ServeHandler for PanicOnce {
    fn handle(&self, request: Request, meta: &RequestMeta) -> Response {
        if matches!(request, Request::Batch { .. }) && self.armed.swap(false, Ordering::SeqCst) {
            panic!("handler bug on one batch");
        }
        self.inner.handle(request, meta)
    }

    fn registry(&self) -> &MetricsRegistry {
        self.inner.registry()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

#[test]
fn a_request_that_failed_on_a_warm_link_is_counted_not_redialled_free() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let panicky = Arc::new(PanicOnce {
        inner: IndexHandler::new(build_index(&column[BOUNDS[1]..BOUNDS[2]]), &shard_config(1)),
        armed: AtomicBool::new(false),
    });
    let shards = vec![
        start_shard(&column, 0, "127.0.0.1:0", shard_config(0)),
        Server::serve(
            Arc::clone(&panicky) as Arc<dyn ServeHandler>,
            "127.0.0.1:0",
            shard_config(1),
        )
        .expect("bind shard 1"),
    ];
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    let router = Router::new(addrs, router_config());
    assert_bit_identical(&run_batch(&router, &predicates), &oracle);
    let dials = "bix_route_shard_1_dials_total";
    assert_eq!(router_metric(&router, dials), 2.0, "shape + one warm link");

    // The shard reads the request off the warm link, and its handler
    // panics: the typed `Internal` reply shows the request ran, so the
    // leg fails and is counted, with no free redial.
    panicky.armed.store(true, Ordering::SeqCst);
    match fan_out(&router, &predicates, 4_000) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Unavailable),
        other => panic!("a panicked leg must not be answered: {other:?}"),
    }
    assert_eq!(router_metric(&router, dials), 2.0, "no redial");
    assert_eq!(
        router_metric(&router, "bix_route_shard_1_failures_total"),
        1.0
    );
    assert_eq!(
        shard_metric(&shards[1], "bix_server_worker_panics_total"),
        1.0
    );
    assert_eq!(router.supervisor().state(1), ShardState::Up);

    // The failed link was dropped: the next fan-out dials a new one.
    assert_bit_identical(&run_batch(&router, &predicates), &oracle);
    assert_eq!(router_metric(&router, dials), 3.0);

    drop(router);
    for shard in shards {
        shard.shutdown();
    }
}
