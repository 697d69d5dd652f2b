//! The repository benchmark: drives the real serving stack (client →
//! router → shard server → executor → buffer pool → codec) from one
//! process and prints one JSON result line.
//!
//! ```text
//! bix-perfbench --workload <routed_rows|fleet_count>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing
//! off. `--trace 1` is the separate traced run: it prints the per-layer
//! metrics, timed from outside by replaying the workload's queries
//! through each layer's public functions. `perfbench/README.md` lists
//! every metric, what it should move, and how it is derived.

mod drive;
mod fleet;
mod ingest;
mod replay;
mod routed;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query.qps", "1/s"),
    ("query.p50_ms", "ms"),
    ("query.p99_ms", "ms"),
    ("ok_frac", "ratio"),
    ("index.bytes_per_row", "B/row"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer that does no work on a
/// workload reports 0 there (for example `core.plan.plan_us` on the
/// single-attribute workloads).
pub const PER_LAYER: [(&str, &str); 33] = [
    ("server.protocol.reply_bytes", "B"),
    ("server.protocol.encode_us", "us"),
    ("server.protocol.decode_us", "us"),
    ("server.router.merge_us", "us"),
    ("server.router.hop_us", "us"),
    ("server.server.queue_wait_us", "us"),
    ("server.server.bytes_out_per_query", "B"),
    ("core.plan.plan_us", "us"),
    ("core.plan.clauses_per_query", "count"),
    ("core.plan.literals_per_query", "count"),
    ("core.query.parse_us", "us"),
    ("core.rewrite.rewrite_us", "us"),
    ("core.rewrite.scans_per_query", "count"),
    ("core.parallel.eval_us", "us"),
    ("core.eval.decompressions_per_query", "count"),
    ("core.delta.absorb_ns_per_row", "ns"),
    ("core.delta.overlay_us", "us"),
    ("core.delta.merge_rows_per_s", "1/s"),
    ("core.delta.merges", "count"),
    ("core.delta.peak_rows", "count"),
    ("storage.shard_pool.hit_ratio", "ratio"),
    ("storage.pages_read_per_query", "count"),
    ("storage.store.fetch_us", "us"),
    ("compress.codec.decode_us", "us"),
    ("compress.codec.bytes_decoded_per_query", "B"),
    ("bitvec.positions_us", "us"),
    ("bitvec.fold_us", "us"),
    ("trace.accounted_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("ingest.rows_per_s", "1/s"),
    ("ingest.p50_ms", "ms"),
    ("ingest.p99_ms", "ms"),
    ("ingest.lateness_p99_ms", "ms"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// The traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload hands back: metrics, correctness, and the human
/// lines and metadata printed before the result.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted and failed while timing.
    pub tally: stats::Tally,
    /// `(name, value)`; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Run metadata, `(key, JSON value)`.
    pub meta: Vec<(&'static str, String)>,
    /// Human-readable lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a metadata entry whose value is already JSON.
    pub fn meta(&mut self, key: &'static str, json: impl Into<String>) {
        self.meta.push((key, json.into()));
    }

    /// Records a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// An independent seed for input stream `stream` of run seed `seed`
/// (SplitMix64), so each generated input depends on the seed alone.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own choices.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(sub_seed(seed, stream))
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = sub_seed(self.0, 0x5eed);
        self.0 % n
    }
}

/// Restarts the peak-resident-set count from the current resident set
/// (Linux `clear_refs` 5), so the next [`peak_rss_mb`] covers the timed
/// phase: the servers' memory and whatever serving allocates, not the
/// benchmark's own oracle and pre-check.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Formats `value` as a JSON number, refusing NaN and infinities.
fn json_number(name: &str, value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("metric {name} is not a finite number: {value}"))
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// where `metrics` holds every name of `expected` and nothing else. A
/// per-layer metric the workload did not report is a layer not on its
/// path and reads 0; a missing end-to-end metric is an error.
fn result_line(
    report: &Report,
    expected: &[(&'static str, &'static str)],
    zero_fill: bool,
) -> Result<(String, Vec<&'static str>), String> {
    let mut filled = Vec::new();
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct,
        report.tally.attempted,
        report.tally.failed()
    );
    for (name, _) in &report.metrics {
        if !expected.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in this run's metric list"));
        }
    }
    for (i, (name, unit)) in expected.iter().enumerate() {
        let value = match report.metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) => *v,
            None if zero_fill => {
                filled.push(*name);
                0.0
            }
            None => return Err(format!("workload did not report {name}")),
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(name, value)?
        );
    }
    out.push_str("}}");
    Ok((out, filled))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "routed_rows" => routed::run(&args),
        "fleet_count" => fleet::run(&args),
        other => Err(format!(
            "unknown workload {other} (routed_rows, fleet_count)"
        )),
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    report.meta.insert(0, ("host_cores", cores.to_string()));
    report.meta.insert(0, ("trace", args.trace.to_string()));
    report.meta.insert(0, ("seconds", args.seconds.to_string()));
    report.meta.insert(0, ("seed", args.seed.to_string()));
    report
        .meta
        .insert(0, ("workload", format!("\"{}\"", args.workload)));

    let (expected, zero_fill): (&[(&'static str, &'static str)], bool) = if args.trace {
        (&PER_LAYER, true)
    } else {
        (&END_TO_END, false)
    };
    let (line, filled) = match result_line(&report, expected, zero_fill) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let meta: Vec<String> = report
        .meta
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("meta: {{{}}}", meta.join(", "));
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# operations: {} attempted, {} wrong, {} refused, {} errors (failed_frac {})",
        report.tally.attempted,
        report.tally.wrong,
        report.tally.refused,
        report.tally.errors,
        report.tally.failed_frac()
    );
    for (name, unit) in expected {
        if let Some((_, v)) = report.metrics.iter().find(|(n, _)| n == name) {
            println!("# {name:<40} {v:>14.4} {unit}");
        }
    }
    if !filled.is_empty() {
        println!(
            "# not on this workload's path (reported as 0): {}",
            filled.join(", ")
        );
    }
    println!("{line}");
    if report.correct && report.tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a correctness check failed or nothing was attempted");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv(
            "--workload routed_rows --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid arguments parse");
        assert_eq!(args.workload, "routed_rows");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 5")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_listed_metrics() {
        let mut report = Report {
            correct: true,
            ..Report::default()
        };
        report.tally.record(stats::Outcome::Ok);
        for (name, _) in END_TO_END {
            report.metric(name, 1.5);
        }
        let (line, filled) = result_line(&report, &END_TO_END, false).expect("complete");
        assert!(filled.is_empty());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"query.p99_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));

        report.metrics.pop();
        assert!(result_line(&report, &END_TO_END, false).is_err());
        let (_, filled) = result_line(&report, &END_TO_END, true).expect("zero-filled");
        assert_eq!(filled, vec!["peak_rss_mb"]);

        report.metrics[2].1 = f64::NAN;
        assert!(result_line(&report, &END_TO_END, true).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists the same metrics,
    /// with the same units, as this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
