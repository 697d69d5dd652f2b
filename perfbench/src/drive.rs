//! Load generation and registry reading shared by the workloads.

use std::time::{Duration, Instant};

use bix_core::MetricsRegistry;
use bix_server::{Client, RouterConfig, Server, ServerConfig};
use bix_telemetry::MetricValue;

use crate::stats::{median, Latencies, Outcome, Tally};

/// What a load phase measured.
#[derive(Debug)]
pub struct Phase {
    /// Round-trip latency of every answered operation, ms, in completion
    /// order.
    pub latencies: Latencies,
    /// Outcomes of every attempted operation.
    pub tally: Tally,
    /// Correct answers completed in each whole second of the phase.
    pub per_second: Vec<f64>,
}

impl Phase {
    /// Correctly answered operations per second: the median over the
    /// phase's one-second windows, so a stall of the host in one window
    /// does not move it.
    pub fn ok_per_s(&self) -> f64 {
        median(&self.per_second)
    }
}

/// Counts of `times` (seconds since the start) in each whole second of
/// `elapsed`; a phase shorter than a second is one window.
fn per_second(times: &[f64], elapsed: Duration) -> Vec<f64> {
    let windows = (elapsed.as_secs() as usize).max(1);
    let mut counts = vec![0.0; windows];
    for &t in times {
        if let Some(c) = counts.get_mut(t as usize) {
            *c += 1.0;
        }
    }
    if elapsed.as_secs() == 0 {
        counts[0] /= elapsed.as_secs_f64().max(1e-9);
    }
    counts
}

/// Runs one closed loop per element of `ops` for `run_for`: each loop
/// sends its next operation only after the previous one completes.
/// `op(i)` performs and checks the loop's `i`-th operation.
pub fn closed_loop<F>(ops: Vec<F>, run_for: Duration) -> Phase
where
    F: FnMut(u64) -> Outcome + Send,
{
    let started = Instant::now();
    let deadline = started + run_for;
    // Per loop: (completion time, latency ms) of answered operations,
    // completion times of correct ones, and the tally.
    type LoopOut = (Vec<(f64, f64)>, Vec<f64>, Tally);
    let per_loop: Vec<LoopOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .into_iter()
            .map(|mut op| {
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut ok_at = Vec::new();
                    let mut tally = Tally::default();
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        let sent = Instant::now();
                        let outcome = op(i);
                        let latency = sent.elapsed();
                        let done_at = (sent + latency - started).as_secs_f64();
                        tally.record(outcome);
                        if outcome != Outcome::Error && outcome != Outcome::Refused {
                            latencies.push((done_at, latency.as_secs_f64() * 1e3));
                        }
                        if outcome == Outcome::Ok {
                            ok_at.push(done_at);
                        }
                        i += 1;
                    }
                    (latencies, ok_at, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut all = Vec::new();
    let mut ok_at = Vec::new();
    let mut tally = Tally::default();
    for (latencies, times, t) in per_loop {
        all.extend(latencies);
        ok_at.extend(times);
        tally.merge(t);
    }
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    Phase {
        latencies: Latencies::new(all.into_iter().map(|(_, ms)| ms).collect()),
        tally,
        per_second: per_second(&ok_at, elapsed),
    }
}

/// Runs `setup` `times` times and keeps the last result; returns it with
/// the median set-up time in seconds. Earlier results are dropped (and
/// so torn down) before the next set-up starts.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&seconds)))
}

/// A snapshot of the registry counters the per-layer metrics read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Admission-queue waits recorded (one per served connection).
    pub queue_waits: u64,
    /// Their summed duration, ns.
    pub queue_wait_ns: u64,
    /// Wire bytes sent.
    pub bytes_out: u64,
    /// Buffer-pool misses (pages read from the simulated disk).
    pub pages_read: u64,
    /// Buffer-pool hits.
    pub pool_hits: u64,
    /// Completed delta merges.
    pub merges: u64,
}

impl Counters {
    /// Reads and sums the counters of every registry in `registries`
    /// from snapshots, so reading never registers a metric.
    pub fn read(registries: &[&MetricsRegistry]) -> Counters {
        let mut c = Counters::default();
        for r in registries {
            for entry in r.snapshot().entries {
                match (entry.name.as_str(), entry.value) {
                    ("bix_server_queue_wait_nanos", MetricValue::Histogram(h)) => {
                        c.queue_waits += h.count;
                        c.queue_wait_ns += h.sum;
                    }
                    ("bix_server_bytes_out_total", MetricValue::Counter(v)) => c.bytes_out += v,
                    ("bix_io_pages_read_total", MetricValue::Counter(v)) => c.pages_read += v,
                    ("bix_io_pool_hits_total", MetricValue::Counter(v)) => c.pool_hits += v,
                    ("bix_delta_merges_total", MetricValue::Counter(v)) => c.merges += v,
                    _ => {}
                }
            }
        }
        c
    }

    /// Counts accrued since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            queue_waits: self.queue_waits - earlier.queue_waits,
            queue_wait_ns: self.queue_wait_ns - earlier.queue_wait_ns,
            bytes_out: self.bytes_out - earlier.bytes_out,
            pages_read: self.pages_read - earlier.pages_read,
            pool_hits: self.pool_hits - earlier.pool_hits,
            merges: self.merges - earlier.merges,
        }
    }
}

/// A client connection to `server`.
pub fn connect(server: &Server) -> Result<Client, String> {
    Client::connect(server.addr()).map_err(|e| format!("connect {}: {e}", server.addr()))
}

/// Rows of shard `i` when `rows` are split by range over `shards`.
pub fn shard_rows(rows: usize, shards: usize, i: usize) -> std::ops::Range<usize> {
    let per = rows / shards;
    let hi = if i + 1 == shards { rows } else { (i + 1) * per };
    i * per..hi
}

/// The router's front server: a worker per client connection, since a
/// worker serves one connection for as long as it stays open.
pub fn front_config(connections: usize) -> ServerConfig {
    ServerConfig {
        workers: connections,
        queue_depth: 16,
        ..ServerConfig::default()
    }
}

/// The `ServerConfig` fields a workload sets, as JSON metadata.
pub fn server_config_json(c: &ServerConfig) -> String {
    format!(
        "{{\"workers\": {}, \"queue_depth\": {}, \"request_threads\": {}, \"pool_pages\": {}, \
         \"default_deadline_ms\": {}, \"delta_budget_bytes\": {}, \"merge_threshold_bytes\": {}}}",
        c.workers,
        c.queue_depth,
        c.request_threads,
        c.pool_pages,
        c.default_deadline_ms,
        c.delta_budget_bytes,
        c.merge_threshold_bytes
    )
}

/// The `RouterConfig` fields that shape a routed run, as JSON metadata.
pub fn router_config_json(c: &RouterConfig) -> String {
    format!(
        "{{\"default_deadline_ms\": {}, \"max_retries\": {}, \"epoch_retries\": {}, \
         \"health_interval_ms\": {}, \"io_timeout_ms\": {}}}",
        c.default_deadline_ms,
        c.retry.max_retries,
        c.epoch_retries,
        c.health_interval.as_millis(),
        c.io_timeout.as_millis()
    )
}

/// A running set of servers, shut down (front first) when dropped.
pub struct Servers(pub Vec<Server>);

impl Drop for Servers {
    fn drop(&mut self) {
        for server in self.0.drain(..) {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_counted_per_whole_second() {
        let times = [0.1, 0.5, 1.2, 1.3, 1.9, 2.5, 3.2];
        // 3.2 s: windows [0,1), [1,2), [2,3); the partial fourth is dropped.
        let counts = per_second(&times, Duration::from_millis(3_200));
        assert_eq!(counts, vec![2.0, 3.0, 1.0]);
        assert_eq!(median(&counts), 2.0);
        // Under a second, the one window is scaled to a rate.
        let short = per_second(&[0.1, 0.2], Duration::from_millis(500));
        assert_eq!(short, vec![4.0]);
    }
}
