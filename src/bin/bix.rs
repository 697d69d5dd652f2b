//! `bix` — a command-line front end for the bitmap-index library.
//!
//! ```text
//! bix build   --input data.csv [--column 0] --cardinality C
//!             [--encoding I] [--codec raw|bbc|wah|ewah|roaring]
//!             [--components N] --out index.bix [--metrics-out file.json]
//! bix query   index.bix <predicate>   # '=5' '<=10' '3..7' 'in:1,2,9' '!3..7'
//!             [--eval-domain auto|compressed|raw]
//!             [--trace] [--trace-out spans.jsonl] [--metrics-out file.json]
//! bix query   index.bix --batch queries.txt [--parallel N] [--pool-pages P]
//!             [--eval-domain auto|compressed|raw]
//!             [--trace] [--trace-out spans.jsonl] [--metrics-out file.json]
//! bix buildcat --input table.csv --out star.bixcat
//!             [--encoding I] [--codec raw|bbc|wah|ewah|roaring]
//!             [--components N]    # header row names the attributes; one
//!                                 # index per column, cardinality = max+1
//! bix query   --catalog star.bixcat "<expr>" [--count] [--parallel N]
//!             [--eval-domain auto|compressed|raw] [--metrics-out file.json]
//!                                 # boolean multi-attribute selection, e.g.
//!                                 # "region in {0,1} and (discount >= 7 or
//!                                 #  not store = 12)"; --count skips row
//!                                 # materialisation (popcount pushdown)
//! bix explain index.bix <predicate> [--eval-domain auto|compressed|raw]
//!                                     # expression, per-constituent scans,
//!                                     # predicted cost-model seconds, and a
//!                                     # traced fold: per-node chosen domain
//!                                     # with predicted-vs-actual time
//! bix explain --catalog star.bixcat "<expr>"
//!                                     # parsed expression, rewrite action
//!                                     # log, DNF clauses, and per-literal
//!                                     # predicted cost through its index
//! bix stats   index.bix [--json]      # metrics snapshot: Prometheus text
//!                                     # by default, JSON with --json
//! bix info    index.bix
//! bix advise  --cardinality C [--equality X --one-sided Y --two-sided Z]
//!             [--budget BITMAPS]
//! bix verify  index.bix|star.bixcat   # checksum every bitmap; exit 2 if corrupt
//! bix repair  index.bix [--out file] [--metrics-out file.json]
//! bix repair  star.bixcat             # rebuild every repairable attribute
//! bix serve   index.bix|star.bixcat [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!             [--deadline-ms MS] [--request-threads N] [--pool-pages P]
//!             [--shard-id N]      # stamp replies as shard N (row-range member)
//!             [--slow-ms MS]      # slow-query capture threshold (0 = all)
//! bix route   --shards H:P,H:P[,...] [--addr HOST:PORT] [--workers N]
//!             [--queue-depth N] [--deadline-ms MS] [--retries N]
//!             [--health-interval-ms MS] [--slow-ms MS]
//!                                 # scatter-gather front-end over row-range
//!                                 # shards (shard order = row order)
//! bix client  ping|query|table|batch|stats|slowlog|reload|shutdown|help
//!             --addr HOST:PORT | --via-router HOST:PORT ...
//!             # query  <predicate> [--eval-domain ...] [--deadline-ms MS]
//!             #        [--trace] [--trace-out spans.jsonl]  # distributed trace
//!             # table  "<expr>" [--count] [--eval-domain ...] [--deadline-ms MS]
//!             #        # multi-attribute query against a catalog server or a
//!             #        # router over catalog shards; --count sums shard popcounts
//!             # batch  <file>      [--eval-domain ...] [--deadline-ms MS]
//!             # stats  [--json]
//!             # slowlog            # slow-query log (router: whole fleet)
//!             # reload <server-side index path>
//!             # common: [--retries N] [--allow-degraded]
//!             # exit codes: 0 ok, 2 usage/connect, 3 overloaded,
//!             #             4 deadline, 5 degraded, 6 unavailable,
//!             #             7 bad query, 8 wire/malformed
//! bix top     --addr HOST:PORT [--interval-ms MS] [--iterations N]
//!                                 # live fleet view: per-node qps, p50/p99,
//!                                 # breaker state, in-flight load
//! ```
//!
//! The input file is one value per line, or CSV with `--column` selecting
//! a zero-based field. Query output is matching row numbers (zero-based),
//! one per line, plus a summary on stderr. `--eval-domain` picks whether
//! the evaluation DAG folds compressed streams directly (`compressed`),
//! decodes every bitmap at read time (`raw`), or chooses per DAG node by
//! a measured cost model (`auto`, the default). `--trace` prints the span tree
//! on stderr; `--trace-out` writes one JSON object per span (JSONL);
//! `--metrics-out` writes a JSON metrics snapshot (counters, gauges, and
//! per-phase latency histograms).

use bix_telemetry::{json, TraceContext};
use chan_bitmap_index::analysis::{advise, Workload};
use chan_bitmap_index::core::{
    BitmapIndex, BitmapRef, BufferPool, Catalog, CodecKind, CostModel, EncodingScheme, EvalDomain,
    EvalResult, EvalStrategy, IndexConfig, IoMetrics, MetricsRegistry, ParallelExecutor, Planner,
    Query, RewriteAction, ShardedBufferPool, TableQuery, Tracer, EXISTENCE_REF,
};
use chan_bitmap_index::server::{
    Client, ClientError, ErrorCode as WireErrorCode, RetryPolicy, Router, RouterConfig, Server,
    ServerConfig, StatsFormat, MAX_INGEST,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("buildcat") => cmd_buildcat(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("advise") => cmd_advise(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("repair") => cmd_repair(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        // `client` and `ingest` map typed outcomes to distinct exit
        // codes so chaos scripts and CI can assert without parsing
        // stderr.
        Some("client") => {
            return match cmd_client(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(CliFailure { exit_code, message }) => {
                    eprintln!("error: {message}");
                    ExitCode::from(exit_code)
                }
            }
        }
        Some("ingest") => {
            return match cmd_ingest(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(CliFailure { exit_code, message }) => {
                    eprintln!("error: {message}");
                    ExitCode::from(exit_code)
                }
            }
        }
        _ => Err(
            "usage: bix <build|buildcat|query|info|explain|stats|advise|verify|repair|serve|route|client|ingest|top> ..."
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Pulls `--flag value` out of an argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare `--flag` is present.
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses `--eval-domain auto|compressed|raw` (default: auto).
fn parse_eval_domain(args: &[String]) -> Result<EvalDomain, String> {
    match flag_value(args, "--eval-domain") {
        None => Ok(EvalDomain::default()),
        Some(v) => EvalDomain::parse(&v)
            .ok_or_else(|| format!("--eval-domain must be auto, compressed, or raw (got {v})")),
    }
}

/// Registers the index-shape gauges every metrics snapshot carries.
fn register_index_gauges(registry: &MetricsRegistry, index: &BitmapIndex) {
    let config = index.config();
    let set = |name: &str, help: &str, v: f64| registry.gauge(name, help).set(v);
    set("bix_index_rows", "Indexed records", index.rows() as f64);
    set(
        "bix_index_cardinality",
        "Attribute cardinality C",
        config.cardinality as f64,
    );
    set(
        "bix_index_components",
        "Decomposition components",
        config.bases.n() as f64,
    );
    set(
        "bix_index_bitmaps",
        "Stored bitmaps",
        index.num_bitmaps() as f64,
    );
    set(
        "bix_index_stored_bytes",
        "On-disk index size (compressed)",
        index.space_bytes() as f64,
    );
    set(
        "bix_index_raw_bytes",
        "Uncompressed index size",
        index.uncompressed_bytes() as f64,
    );
}

/// Registers the evaluation-mix counters — decompressions plus DAG
/// nodes folded per domain — charged from a set of query results.
fn register_eval_counters<'a>(
    registry: &MetricsRegistry,
    results: impl IntoIterator<Item = &'a EvalResult>,
) {
    let decompressions = registry.counter(
        "bix_eval_decompressions_total",
        "Compressed bitmaps materialised during evaluation",
    );
    let nodes_raw = registry.counter(
        "bix_eval_nodes_raw_total",
        "DAG nodes folded in the raw (decoded) domain",
    );
    let nodes_compressed = registry.counter(
        "bix_eval_nodes_compressed_total",
        "DAG nodes folded in the compressed domain",
    );
    for r in results {
        decompressions.add(r.decompressions as u64);
        nodes_raw.add(r.nodes_raw as u64);
        nodes_compressed.add(r.nodes_compressed as u64);
    }
}

/// Writes the registry's JSON snapshot to `path` (for `--metrics-out`).
fn write_metrics(path: &str, registry: &MetricsRegistry) -> Result<(), String> {
    std::fs::write(path, registry.snapshot().to_json())
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Emits trace output as requested: the human-readable tree on stderr
/// for `--trace`, JSONL spans into the `--trace-out` file.
fn emit_trace(args: &[String], tracer: &Tracer) -> Result<(), String> {
    if has_flag(args, "--trace") {
        eprint!("{}", tracer.render_tree());
    }
    if let Some(path) = flag_value(args, "--trace-out") {
        std::fs::write(&path, tracer.render_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Whether any tracing output was requested.
fn wants_trace(args: &[String]) -> bool {
    has_flag(args, "--trace") || flag_value(args, "--trace-out").is_some()
}

fn parse_encoding(s: &str) -> Result<EncodingScheme, String> {
    EncodingScheme::ALL_WITH_VARIANTS
        .into_iter()
        .find(|e| e.symbol().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown encoding {s} (use E, R, I, ER, O, EI, EI*, I+)"))
}

fn parse_codec(s: &str) -> Result<CodecKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "raw" => Ok(CodecKind::Raw),
        "bbc" => Ok(CodecKind::Bbc),
        "wah" => Ok(CodecKind::Wah),
        "ewah" => Ok(CodecKind::Ewah),
        "roaring" => Ok(CodecKind::Roaring),
        other => Err(format!(
            "unknown codec {other} (use raw, bbc, wah, ewah, roaring)"
        )),
    }
}

/// Parses the CLI predicate grammar into a [`Query`] (see
/// [`Query::parse`] for the grammar).
fn parse_predicate(s: &str, cardinality: u64) -> Result<Query, String> {
    Query::parse(s, cardinality).map_err(|e| e.to_string())
}

/// Reads one column of values from a text/CSV file.
fn read_column(path: &str, column: usize) -> Result<Vec<u64>, String> {
    let contents = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut values = Vec::new();
    for (line_no, line) in contents.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let field = line
            .split(',')
            .nth(column)
            .ok_or_else(|| format!("{path}:{}: no column {column}", line_no + 1))?;
        let v: u64 = field
            .trim()
            .parse()
            .map_err(|_| format!("{path}:{}: bad value {field:?}", line_no + 1))?;
        values.push(v);
    }
    if values.is_empty() {
        return Err(format!("{path} contains no values"));
    }
    Ok(values)
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let input = flag_value(args, "--input").ok_or("--input is required")?;
    let out = flag_value(args, "--out").ok_or("--out is required")?;
    let column: usize = flag_value(args, "--column")
        .map(|v| v.parse().map_err(|_| "--column must be a number"))
        .transpose()?
        .unwrap_or(0);
    let values = read_column(&input, column)?;

    let cardinality: u64 = match flag_value(args, "--cardinality") {
        Some(v) => v.parse().map_err(|_| "--cardinality must be a number")?,
        None => values.iter().max().copied().unwrap_or(1) + 1,
    };
    let encoding = parse_encoding(&flag_value(args, "--encoding").unwrap_or_else(|| "I".into()))?;
    let codec = parse_codec(&flag_value(args, "--codec").unwrap_or_else(|| "raw".into()))?;
    let components: usize = flag_value(args, "--components")
        .map(|v| v.parse().map_err(|_| "--components must be a number"))
        .transpose()?
        .unwrap_or(1);

    let config = IndexConfig::n_components(cardinality, encoding, components).with_codec(codec);
    let build_started = std::time::Instant::now();
    let index = BitmapIndex::build(&values, &config);
    let build_seconds = build_started.elapsed().as_secs_f64();
    index
        .save(&out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    if let Some(metrics_out) = flag_value(args, "--metrics-out") {
        let registry = MetricsRegistry::new();
        register_index_gauges(&registry, &index);
        registry
            .gauge("bix_build_seconds", "Wall-clock index build time")
            .set(build_seconds);
        IoMetrics::register(&registry).record(&index.io_stats());
        write_metrics(&metrics_out, &registry)?;
    }
    eprintln!(
        "built {} index over {} rows (C={cardinality}, {} bitmaps, {} bytes) -> {out}",
        encoding.symbol(),
        values.len(),
        index.num_bitmaps(),
        index.space_bytes(),
    );
    Ok(())
}

/// Flags that consume a value argument, shared by the catalog-aware
/// subcommands so positional arguments (the expression) can be found
/// wherever they sit relative to `--flag value` pairs.
const VALUE_FLAGS: &[&str] = &[
    "--catalog",
    "--eval-domain",
    "--parallel",
    "--pool-pages",
    "--metrics-out",
    "--trace-out",
    "--input",
    "--out",
    "--encoding",
    "--codec",
    "--components",
];

/// The first positional (non-flag) argument, skipping `--flag value`
/// pairs for every flag in [`VALUE_FLAGS`].
fn first_positional(args: &[String]) -> Option<&String> {
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += if VALUE_FLAGS.contains(&args[i].as_str()) {
                2
            } else {
                1
            };
            continue;
        }
        return Some(&args[i]);
    }
    None
}

/// Reads a whole table from a headed CSV: the first non-empty line
/// names the attributes, every following line is one row of u64 values.
fn read_table(path: &str) -> Result<(Vec<String>, Vec<Vec<u64>>), String> {
    let contents = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut lines = contents
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or_else(|| format!("{path} is empty"))?;
    let names: Vec<String> = header
        .split(',')
        .map(|f| f.trim().to_string())
        .filter(|f| !f.is_empty())
        .collect();
    if names.is_empty() {
        return Err(format!("{path}: header row names no attributes"));
    }
    let mut columns: Vec<Vec<u64>> = vec![Vec::new(); names.len()];
    for (line_no, line) in lines {
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != names.len() {
            return Err(format!(
                "{path}:{}: {} field(s), header has {}",
                line_no + 1,
                fields.len(),
                names.len()
            ));
        }
        for (column, field) in columns.iter_mut().zip(&fields) {
            let v: u64 = field
                .parse()
                .map_err(|_| format!("{path}:{}: bad value {field:?}", line_no + 1))?;
            column.push(v);
        }
    }
    if columns[0].is_empty() {
        return Err(format!("{path} contains no rows"));
    }
    Ok((names, columns))
}

fn cmd_buildcat(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bix buildcat --input table.csv --out star.bixcat \
         [--encoding I] [--codec raw|bbc|wah|ewah|roaring] [--components N]";
    let input = flag_value(args, "--input").ok_or(USAGE)?;
    let out = flag_value(args, "--out").ok_or(USAGE)?;
    let encoding = parse_encoding(&flag_value(args, "--encoding").unwrap_or_else(|| "I".into()))?;
    let codec = parse_codec(&flag_value(args, "--codec").unwrap_or_else(|| "raw".into()))?;
    let components: usize = flag_value(args, "--components")
        .map(|v| v.parse().map_err(|_| "--components must be a number"))
        .transpose()?
        .unwrap_or(1);

    let (names, columns) = read_table(&input)?;
    let rows = columns[0].len();
    let specs: Vec<(&str, &[u64], IndexConfig)> = names
        .iter()
        .zip(&columns)
        .map(|(name, column)| {
            let cardinality = column.iter().max().copied().unwrap_or(0) + 1;
            let config =
                IndexConfig::n_components(cardinality, encoding, components).with_codec(codec);
            (name.as_str(), column.as_slice(), config)
        })
        .collect();
    let mut catalog = Catalog::build(rows, &specs);
    catalog
        .save(&out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "built catalog over {rows} rows: {} attribute(s) ({}), {} bytes of indexes -> {out}",
        names.len(),
        names.join(", "),
        catalog.table().space_bytes(),
    );
    Ok(())
}

/// `bix query --catalog`: plans a boolean multi-attribute expression
/// and executes it across the catalog's indexes through one shared
/// buffer pool. `--count` skips row materialisation entirely — the
/// answer is the folded bitmap's popcount.
fn cmd_query_catalog(path: &str, args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: bix query --catalog <table.bixcat> \"<expr>\" [--count] [--parallel N] \
         [--pool-pages P] [--eval-domain auto|compressed|raw] [--metrics-out file.json]";
    let text = first_positional(args).ok_or(USAGE)?;
    let domain = parse_eval_domain(args)?;
    let threads = numeric_flag(args, "--parallel", 1)?;
    let pool_pages = numeric_flag(args, "--pool-pages", 8192)?;

    let catalog = Catalog::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let table = catalog.into_table();
    let schema = table.schema();
    let plan = Planner::plan_text(&schema, text).map_err(|e| e.to_string())?;

    let pool = ShardedBufferPool::new(pool_pages, threads.max(2));
    let executor = ParallelExecutor::new(threads).with_domain(domain);
    let result = executor.execute_plan(&table, &plan, &pool, &CostModel::default());

    if has_flag(args, "--count") {
        println!("{}", result.count());
        eprintln!(
            "{} rows matched ({} bitmap scans, {} decompressions, {:.4}s simulated I/O; \
             count pushdown, rows never materialised)",
            result.count(),
            result.scans,
            result.decompressions,
            result.seconds,
        );
    } else {
        for row in result.bitmap.ones() {
            println!("{row}");
        }
        eprintln!(
            "{} rows matched ({} bitmap scans, {} decompressions, {:.4}s simulated I/O)",
            result.bitmap.count_ones(),
            result.scans,
            result.decompressions,
            result.seconds,
        );
    }
    if let Some(metrics_out) = flag_value(args, "--metrics-out") {
        let registry = MetricsRegistry::new();
        registry
            .gauge("bix_index_rows", "Indexed records")
            .set(table.rows() as f64);
        registry
            .gauge("bix_catalog_attrs", "Indexed attributes")
            .set(schema.len() as f64);
        registry
            .counter("bix_queries_total", "Queries executed")
            .inc();
        IoMetrics::register(&registry).record(&result.io);
        write_metrics(&metrics_out, &registry)?;
    }
    Ok(())
}

/// `bix explain --catalog`: the parsed expression, the rewrite action
/// log, the DNF clauses, and each distinct literal's predicted cost
/// through its attribute's index.
fn cmd_explain_catalog(path: &str, args: &[String]) -> Result<(), String> {
    let text =
        first_positional(args).ok_or("usage: bix explain --catalog <table.bixcat> \"<expr>\"")?;
    let catalog = Catalog::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let table = catalog.into_table();
    let schema = table.schema();

    let query = TableQuery::parse(text, &schema).map_err(|e| e.to_string())?;
    println!("expression: {query}");
    let plan = Planner::new(&schema)
        .plan(&query)
        .map_err(|e| e.to_string())?;
    if plan.actions.is_empty() {
        println!("rewrite: (already normalised)");
    } else {
        let steps: Vec<String> = plan.actions.iter().map(RewriteAction::to_string).collect();
        println!("rewrite: {}", steps.join(", "));
    }
    println!("plan ({} DNF clause(s)):", plan.clauses.len());
    println!("{}", plan.display(&schema));

    let cost = CostModel::default();
    let mut scans = 0usize;
    let mut bytes = 0usize;
    let mut seconds = 0.0f64;
    for lit in plan.distinct_literals() {
        let name = &schema.attr(lit.attr).name;
        let index = table
            .index_at(lit.attr)
            .ok_or_else(|| format!("catalog has no index for attribute {name}"))?;
        let expr = index.rewrite(&lit.query);
        let p = index.predict_cost(&expr, &cost);
        let complement = if lit.complement {
            " (complemented)"
        } else {
            ""
        };
        println!(
            "  literal {name}{complement}: {} scan(s), {} bytes, predicted {:.4}s",
            p.scans, p.bytes, p.seconds,
        );
        scans += p.scans;
        bytes += p.bytes;
        seconds += p.seconds;
    }
    println!(
        "-- {scans} bitmap scan(s), {bytes} stored bytes, predicted {seconds:.4}s I/O \
         across {} distinct literal(s)",
        plan.distinct_literals().len(),
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bix query <index.bix> <predicate> [--eval-domain auto|compressed|raw] | bix query <index.bix> --batch <file> [--parallel N] [--eval-domain auto|compressed|raw] | bix query --catalog <table.bixcat> \"<expr>\" [--count] [--parallel N]";
    if let Some(catalog_path) = flag_value(args, "--catalog") {
        return cmd_query_catalog(&catalog_path, args);
    }
    let path = args.first().ok_or(USAGE)?;
    if let Some(batch_file) = flag_value(args, "--batch") {
        return cmd_query_batch(path, &batch_file, args);
    }
    let predicate = args.get(1).filter(|a| !a.starts_with("--")).ok_or(USAGE)?;
    let domain = parse_eval_domain(args)?;
    let mut index = BitmapIndex::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let query = parse_predicate(predicate, index.config().cardinality)?;

    let tracer = if wants_trace(args) {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let cost = CostModel::default();
    let mut pool = BufferPool::new(index.config().disk.pages_for_bytes(64 << 20));
    let root = tracer.span(&format!("query {predicate}"), None);
    let root_id = root.id();
    let result = index.evaluate_detailed_with_domain(
        &query,
        &mut pool,
        EvalStrategy::ComponentWise,
        domain,
        &cost,
        &tracer,
        root_id,
    );
    root.attr("rows", result.bitmap.count_ones());
    root.finish();

    for row in result.bitmap.ones() {
        println!("{row}");
    }
    emit_trace(args, &tracer)?;
    if let Some(metrics_out) = flag_value(args, "--metrics-out") {
        let registry = MetricsRegistry::new();
        register_index_gauges(&registry, &index);
        registry
            .counter("bix_queries_total", "Queries executed")
            .inc();
        IoMetrics::register(&registry).record(&result.io);
        register_eval_counters(&registry, std::iter::once(&result));
        registry.observe_trace(&tracer);
        write_metrics(&metrics_out, &registry)?;
    }
    eprintln!(
        "{} rows matched ({} bitmap scans, {} decompressions, {:.4}s simulated I/O)",
        result.bitmap.count_ones(),
        result.scans,
        result.decompressions,
        result.io_seconds,
    );
    Ok(())
}

/// Batch mode: evaluates one predicate per line of `batch_file`
/// concurrently over `--parallel N` threads (default: all cores) through
/// the lock-striped buffer pool. Prints one `line: count` summary per
/// query and merged I/O totals on stderr.
fn cmd_query_batch(path: &str, batch_file: &str, args: &[String]) -> Result<(), String> {
    let threads: usize = match flag_value(args, "--parallel") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--parallel must be a positive number")?,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let pool_pages: usize = match flag_value(args, "--pool-pages") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--pool-pages must be a positive number")?,
        None => 8192,
    };

    let index = BitmapIndex::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let contents = std::fs::read_to_string(batch_file)
        .map_err(|e| format!("cannot read {batch_file}: {e}"))?;
    let mut queries = Vec::new();
    for (line_no, line) in contents.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let q = parse_predicate(line, index.config().cardinality)
            .map_err(|e| format!("{batch_file}:{}: {e}", line_no + 1))?;
        queries.push((line.to_owned(), q));
    }
    if queries.is_empty() {
        return Err(format!("{batch_file} contains no predicates"));
    }

    let predicates: Vec<Query> = queries.iter().map(|(_, q)| q.clone()).collect();
    let pool = ShardedBufferPool::new(pool_pages, threads.max(2));
    let executor = ParallelExecutor::new(threads).with_domain(parse_eval_domain(args)?);
    let tracer = if wants_trace(args) {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let batch = executor
        .execute_full_delta(
            &index,
            None,
            &predicates,
            &pool,
            &CostModel::default(),
            &tracer,
            None,
            None,
        )
        .map_err(|e| e.to_string())?;
    emit_trace(args, &tracer)?;
    if let Some(metrics_out) = flag_value(args, "--metrics-out") {
        let registry = MetricsRegistry::new();
        register_index_gauges(&registry, &index);
        registry
            .counter("bix_queries_total", "Queries executed")
            .add(batch.results.len() as u64);
        IoMetrics::register(&registry).record(&batch.io);
        register_eval_counters(&registry, &batch.results);
        registry.observe_trace(&tracer);
        write_metrics(&metrics_out, &registry)?;
    }

    for ((text, _), result) in queries.iter().zip(&batch.results) {
        println!(
            "{text}\t{} rows\t{} scans",
            result.bitmap.count_ones(),
            result.scans
        );
    }
    eprintln!(
        "{} queries on {} threads in {:.3}s wall: {} scans, {} pages read, {} pool hits, {:.3}s simulated I/O",
        batch.results.len(),
        batch.threads,
        batch.wall_seconds,
        batch.total_scans(),
        batch.io.pages_read,
        batch.io.pool_hits,
        batch.io_seconds,
    );
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    if let Some(catalog_path) = flag_value(args, "--catalog") {
        return cmd_explain_catalog(&catalog_path, args);
    }
    let [path, predicate, ..] = args else {
        return Err(
            "usage: bix explain <index.bix> <predicate> [--eval-domain auto|compressed|raw] \
             | bix explain --catalog <table.bixcat> \"<expr>\""
                .into(),
        );
    };
    let mut index = BitmapIndex::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let query = parse_predicate(predicate, index.config().cardinality)?;
    let expr = index.rewrite(&query);
    let cost = CostModel::default();
    println!("{}", index.explain(&query));

    // Per-constituent breakdown in the same terms the trace output uses:
    // distinct bitmap scans and predicted cost-model seconds (cold pool).
    let config = index.config();
    let bases = config.bases.bases().to_vec();
    let encoding = config.encoding;
    let multi = bases.len() > 1;
    let name_of = move |r: BitmapRef| {
        let name = encoding.slot_name(bases[r.component], r.slot);
        if multi {
            format!("{name}[c{}]", r.component + 1)
        } else {
            name
        }
    };
    let constituents = index.rewrite_constituents(&query);
    if constituents.len() > 1 {
        for (i, c) in constituents.iter().enumerate() {
            let p = index.predict_cost(c, &cost);
            println!(
                "  constituent {i}: {}  -- {} scan(s), {} bytes, predicted {:.4}s",
                c.display_with(&name_of),
                p.scans,
                p.bytes,
                p.seconds,
            );
        }
    }
    let total = index.predict_cost(&expr, &cost);
    println!(
        "-- {} distinct bitmap scan(s), {} stored bytes, predicted {:.4}s I/O, est. {} matching rows",
        total.scans,
        total.bytes,
        total.seconds,
        index.estimate_rows(&query),
    );

    // One traced evaluation: which domain each DAG node actually ran in,
    // with the DomainCostModel's predicted nanoseconds next to the
    // measured time, so model misfires are visible per node.
    let domain = parse_eval_domain(args)?;
    let tracer = Tracer::new();
    let mut pool = BufferPool::new(4096);
    let result = index.evaluate_detailed_with_domain(
        &query,
        &mut pool,
        EvalStrategy::ComponentWise,
        domain,
        &cost,
        &tracer,
        None,
    );
    println!(
        "-- {} fold: {} raw node(s), {} compressed node(s), {} decompression(s)",
        domain.name(),
        result.nodes_raw,
        result.nodes_compressed,
        result.decompressions,
    );
    for r in tracer.records() {
        if r.phase() != "node" {
            continue;
        }
        let attr = |k: &str| {
            r.attrs
                .iter()
                .find(|(a, _)| a == k)
                .map(|(_, v)| v.as_str())
                .unwrap_or("-")
                .to_owned()
        };
        let predicted_us = attr("predicted_ns").parse::<f64>().unwrap_or(0.0) / 1e3;
        println!(
            "  {}: domain={}  predicted {predicted_us:.1}us  actual {:.1}us",
            r.name,
            attr("domain"),
            r.duration_ns() as f64 / 1e3,
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: bix stats <index.bix> [--json]")?;
    let index = BitmapIndex::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let registry = MetricsRegistry::new();
    register_index_gauges(&registry, &index);
    IoMetrics::register(&registry).record(&index.io_stats());
    // Expose the eval-mix counters (zeroed: no queries have run in this
    // process) so scrapers see a stable schema from every entry point.
    register_eval_counters(&registry, std::iter::empty());
    let snapshot = registry.snapshot();
    if has_flag(args, "--json") {
        print!("{}", snapshot.to_json());
    } else {
        print!("{}", snapshot.to_prometheus());
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [path, ..] = args else {
        return Err("usage: bix info <index.bix>".into());
    };
    let index = BitmapIndex::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let config = index.config();
    println!("encoding:     {}", config.encoding.symbol());
    println!("codec:        {}", config.codec.name());
    println!("cardinality:  {}", config.cardinality);
    println!(
        "components:   {} (bases, most significant first: {:?})",
        config.bases.n(),
        config.bases.bases().iter().rev().collect::<Vec<_>>()
    );
    println!("rows:         {}", index.rows());
    println!("bitmaps:      {}", index.num_bitmaps());
    println!("stored bytes: {}", index.space_bytes());
    println!("raw bytes:    {}", index.uncompressed_bytes());
    Ok(())
}

fn cmd_advise(args: &[String]) -> Result<(), String> {
    let cardinality: u64 = flag_value(args, "--cardinality")
        .ok_or("--cardinality is required")?
        .parse()
        .map_err(|_| "--cardinality must be a number")?;
    let get = |flag: &str, default: f64| -> Result<f64, String> {
        flag_value(args, flag)
            .map(|v| v.parse().map_err(|_| format!("{flag} must be a number")))
            .transpose()
            .map(|o| o.unwrap_or(default))
    };
    let workload = Workload {
        equality: get("--equality", 1.0)?,
        one_sided: get("--one-sided", 1.0)?,
        two_sided: get("--two-sided", 1.0)?,
        membership_constituents: get("--constituents", 1.0)?,
    };
    let budget: Option<usize> = flag_value(args, "--budget")
        .map(|v| v.parse().map_err(|_| "--budget must be a number"))
        .transpose()?;

    let advice = advise(cardinality, &workload, budget);
    println!("space-time frontier (bitmaps, expected scans/query):");
    for d in &advice.frontier {
        println!(
            "  {:<4} n={} bases={:?}  {:>4} bitmaps  {:.3} scans",
            d.encoding.symbol(),
            d.n_components,
            d.bases.iter().rev().collect::<Vec<_>>(),
            d.bitmaps,
            d.expected_scans,
        );
    }
    match &advice.recommended {
        Some(d) => println!(
            "recommended: {} with {} components ({} bitmaps, {:.3} scans/query)",
            d.encoding.symbol(),
            d.n_components,
            d.bitmaps,
            d.expected_scans,
        ),
        None => println!("no design fits the budget"),
    }
    Ok(())
}

/// Human-readable name for a bitmap slot in verify/repair output.
fn describe_ref(r: BitmapRef) -> String {
    if r == EXISTENCE_REF {
        "existence bitmap".to_string()
    } else {
        format!("component {} slot {}", r.component, r.slot)
    }
}

/// Opens an index file with the corruption-tolerant loader, so damaged
/// bitmaps are quarantined instead of aborting the load.
fn load_tolerant_path(path: &str) -> Result<BitmapIndex, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    BitmapIndex::load_tolerant(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot load {path}: {e}"))
}

/// `bix verify` for a `.bixcat` catalog: every attribute's index is
/// checksummed; any corrupt bitmap anywhere fails the whole catalog.
fn cmd_verify_catalog(path: &str) -> Result<(), String> {
    let mut catalog =
        Catalog::load_tolerant(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let reports = catalog.verify();
    let mut corrupt = 0usize;
    for (attr, report) in &reports {
        for (r, name) in &report.corrupt {
            corrupt += 1;
            eprintln!("corrupt: {attr}: {} [{name}]", describe_ref(*r));
        }
    }
    if corrupt == 0 {
        println!(
            "{path}: ok ({} attribute(s), {} rows, {} bytes)",
            reports.len(),
            catalog.table().rows(),
            catalog.table().space_bytes(),
        );
        Ok(())
    } else {
        Err(format!(
            "{path}: {corrupt} bitmap(s) failed checksum verification across {} attribute(s)",
            reports.len(),
        ))
    }
}

/// `bix repair` for a `.bixcat` catalog. Refuses to save when any
/// attribute still holds an unrepairable bitmap, for the same reason
/// the single-index repair does.
fn cmd_repair_catalog(path: &str, args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "--out").unwrap_or_else(|| path.to_string());
    let mut catalog =
        Catalog::load_tolerant(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let reports = catalog.repair();
    let mut rebuilt = 0usize;
    let mut unrepairable = 0usize;
    for (attr, report) in &reports {
        for r in &report.repaired {
            rebuilt += 1;
            eprintln!("repaired: {attr}: {}", describe_ref(*r));
        }
        for r in &report.unrepairable {
            unrepairable += 1;
            eprintln!("unrepairable: {attr}: {}", describe_ref(*r));
        }
    }
    if unrepairable > 0 {
        return Err(format!(
            "{path}: {unrepairable} bitmap(s) could not be reconstructed; not saving",
        ));
    }
    catalog
        .save(&out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("{path}: {rebuilt} bitmap(s) rebuilt, catalog saved to {out}");
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let [path, ..] = args else {
        return Err("usage: bix verify <index.bix|table.bixcat>".into());
    };
    if path.ends_with(".bixcat") {
        return cmd_verify_catalog(path);
    }
    let mut index = load_tolerant_path(path)?;
    let report = index.verify();
    for (r, name) in &report.corrupt {
        eprintln!("corrupt: {} [{name}]", describe_ref(*r));
    }
    if report.is_clean() {
        println!(
            "{path}: ok ({} bitmaps, {} rows, {} bytes)",
            index.num_bitmaps(),
            index.rows(),
            index.space_bytes(),
        );
        Ok(())
    } else {
        Err(format!(
            "{path}: {} of {} bitmaps failed checksum verification",
            report.corrupt.len(),
            index.num_bitmaps(),
        ))
    }
}

fn cmd_repair(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: bix repair <index.bix|table.bixcat> [--out <file>]")?;
    if path.ends_with(".bixcat") {
        return cmd_repair_catalog(path, args);
    }
    let out = flag_value(args, "--out").unwrap_or_else(|| path.clone());
    let mut index = load_tolerant_path(path)?;
    let report = index.repair();
    for r in &report.repaired {
        eprintln!("repaired: {}", describe_ref(*r));
    }
    for r in &report.unrepairable {
        eprintln!("unrepairable: {}", describe_ref(*r));
    }
    if let Some(metrics_out) = flag_value(args, "--metrics-out") {
        let registry = MetricsRegistry::new();
        register_index_gauges(&registry, &index);
        registry
            .counter("bix_repair_rebuilt_total", "Bitmaps rebuilt by repair")
            .add(report.repaired.len() as u64);
        registry
            .counter(
                "bix_repair_unrepairable_total",
                "Bitmaps repair could not reconstruct",
            )
            .add(report.unrepairable.len() as u64);
        IoMetrics::register(&registry).record(&index.io_stats());
        write_metrics(&metrics_out, &registry)?;
    }
    if !report.unrepairable.is_empty() {
        // Never write a file that still contains corrupt bitmaps: saving
        // would re-checksum nothing, but it would overwrite the caller's
        // only copy with one we know is damaged.
        return Err(format!(
            "{path}: {} bitmap(s) could not be reconstructed; not saving",
            report.unrepairable.len(),
        ));
    }
    index
        .save(&out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "{path}: {} bitmap(s) rebuilt, index saved to {out}",
        report.repaired.len(),
    );
    Ok(())
}

/// Parses a positive `--flag N` with a default.
fn numeric_flag(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{flag} must be a positive number")),
    }
}

/// Like [`numeric_flag`] but zero is meaningful (`--slow-ms 0` captures
/// everything, `--iterations 0` runs until interrupted).
fn u64_flag(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag} must be a number")),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: bix serve <index.bix|table.bixcat> [--addr HOST:PORT] [--workers N] \
         [--queue-depth N] [--deadline-ms MS] [--request-threads N] [--pool-pages P] \
         [--shard-id N] [--slow-ms MS] [--delta-budget-mb MB] [--merge-threshold-mb MB]";
    let path = args.first().filter(|a| !a.starts_with("--")).ok_or(USAGE)?;
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".into());
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: numeric_flag(args, "--workers", defaults.workers)?,
        queue_depth: numeric_flag(args, "--queue-depth", defaults.queue_depth)?,
        request_threads: numeric_flag(args, "--request-threads", defaults.request_threads)?,
        pool_pages: numeric_flag(args, "--pool-pages", defaults.pool_pages)?,
        default_deadline_ms: match flag_value(args, "--deadline-ms") {
            None => defaults.default_deadline_ms,
            Some(v) => v.parse().map_err(|_| "--deadline-ms must be a number")?,
        },
        shard_id: match flag_value(args, "--shard-id") {
            None => defaults.shard_id,
            Some(v) => v.parse().map_err(|_| "--shard-id must be a small number")?,
        },
        slow_threshold_ms: u64_flag(args, "--slow-ms", defaults.slow_threshold_ms)?,
        delta_budget_bytes: numeric_flag(
            args,
            "--delta-budget-mb",
            defaults.delta_budget_bytes >> 20,
        )? << 20,
        merge_threshold_bytes: numeric_flag(
            args,
            "--merge-threshold-mb",
            defaults.merge_threshold_bytes >> 20,
        )? << 20,
        ..defaults
    };
    // A `.bixcat` path serves the whole catalog: multi-attribute table
    // queries instead of single-index predicates.
    if path.ends_with(".bixcat") {
        let mut catalog = Catalog::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
        if catalog.verify().iter().any(|(_, r)| !r.is_clean()) {
            return Err(format!("{path}: catalog failed verification; not serving"));
        }
        let server = Server::start_catalog(catalog, addr.as_str(), config)
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        println!("serving catalog {path} on {}", server.addr());
        server.join();
        eprintln!("server stopped");
        return Ok(());
    }
    let mut index = BitmapIndex::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    // Never serve an index that fails verification; a reload request
    // applies the same gate.
    if !index.verify().is_clean() {
        return Err(format!("{path}: index failed verification; not serving"));
    }
    let server = Server::start(index, addr.as_str(), config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("serving {path} on {}", server.addr());
    server.join();
    eprintln!("server stopped");
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bix route --shards HOST:PORT,HOST:PORT[,...] \
         [--addr HOST:PORT] [--workers N] [--queue-depth N] [--deadline-ms MS] \
         [--retries N] [--health-interval-ms MS] [--slow-ms MS]";
    let shards: Vec<String> = flag_value(args, "--shards")
        .ok_or(USAGE)?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if shards.is_empty() {
        return Err(USAGE.to_string());
    }
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7071".into());
    let route_defaults = RouterConfig::default();
    let retry = RetryPolicy {
        max_retries: numeric_flag(args, "--retries", route_defaults.retry.max_retries as usize)?
            as u32,
        ..route_defaults.retry
    };
    let health_interval = match flag_value(args, "--health-interval-ms") {
        None => route_defaults.health_interval,
        Some(v) => Duration::from_millis(
            v.parse()
                .map_err(|_| "--health-interval-ms must be a number")?,
        ),
    };
    let route_config = RouterConfig {
        default_deadline_ms: match flag_value(args, "--deadline-ms") {
            None => route_defaults.default_deadline_ms,
            Some(v) => v.parse().map_err(|_| "--deadline-ms must be a number")?,
        },
        retry,
        health_interval,
        slow_threshold_ms: u64_flag(args, "--slow-ms", route_defaults.slow_threshold_ms)?,
        ..route_defaults
    };
    let serve_defaults = ServerConfig::default();
    let serve_config = ServerConfig {
        workers: numeric_flag(args, "--workers", serve_defaults.workers)?,
        queue_depth: numeric_flag(args, "--queue-depth", serve_defaults.queue_depth)?,
        ..serve_defaults
    };
    let n_shards = shards.len();
    let router = Router::new(shards, route_config);
    let server = Server::serve(Arc::new(router), addr.as_str(), serve_config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("routing {n_shards} shards on {}", server.addr());
    server.join();
    eprintln!("router stopped");
    Ok(())
}

/// Finds one named metric entry in a registry JSON snapshot.
fn metric<'a>(doc: &'a json::Json, name: &str) -> Option<&'a json::Json> {
    doc.get("metrics")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(json::Json::as_str) == Some(name))
}

/// One row of the `bix top` display, extracted from a node's snapshot.
struct TopRow {
    label: String,
    /// Breaker state as the router publishes it (0 up, 1 half-open,
    /// 2 down); `None` for nodes without a breaker (the router itself)
    /// or unreachable shards.
    breaker: Option<f64>,
    reachable: bool,
    requests: Option<f64>,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
    inflight: Option<f64>,
}

impl TopRow {
    fn from_snapshot(label: String, doc: &json::Json, breaker: Option<f64>) -> TopRow {
        let hist = metric(doc, "bix_server_request_nanos");
        let q = |key: &str| hist.and_then(|h| h.get(key)).and_then(json::Json::as_f64);
        TopRow {
            label,
            breaker,
            reachable: true,
            requests: metric(doc, "bix_server_requests_total")
                .and_then(|m| m.get("value"))
                .and_then(json::Json::as_f64),
            p50_ms: q("p50").map(|ns| ns / 1e6),
            p99_ms: q("p99").map(|ns| ns / 1e6),
            inflight: metric(doc, "bix_server_inflight")
                .and_then(|m| m.get("value"))
                .and_then(json::Json::as_f64),
        }
    }

    fn unreachable(label: String, breaker: Option<f64>) -> TopRow {
        TopRow {
            label,
            breaker,
            reachable: false,
            requests: None,
            p50_ms: None,
            p99_ms: None,
            inflight: None,
        }
    }

    fn state(&self) -> &'static str {
        if !self.reachable {
            return "down";
        }
        match self.breaker {
            Some(s) if s >= 2.0 => "down",
            Some(s) if s >= 1.0 => "half-open",
            _ => "up",
        }
    }
}

/// Splits an aggregated router snapshot (`{"router": …, "shards":
/// […]}`) — or a single server's flat snapshot — into display rows.
fn top_rows(doc: &json::Json) -> Vec<TopRow> {
    let Some(router) = doc.get("router") else {
        return vec![TopRow::from_snapshot("server".into(), doc, None)];
    };
    let mut rows = vec![TopRow::from_snapshot("router".into(), router, None)];
    if let Some(shards) = doc.get("shards").and_then(json::Json::as_array) {
        for (i, shard) in shards.iter().enumerate() {
            let label = format!("shard {i}");
            let breaker = metric(router, &format!("bix_route_shard_{i}_breaker_state"))
                .and_then(|m| m.get("value"))
                .and_then(json::Json::as_f64);
            // Unreachable shards arrive as JSON null (no "metrics").
            if shard.get("metrics").is_some() {
                rows.push(TopRow::from_snapshot(label, shard, breaker));
            } else {
                rows.push(TopRow::unreachable(label, breaker));
            }
        }
    }
    rows
}

/// `bix top`: a live fleet view — per-node request rate, latency
/// quantiles, breaker state, and in-flight load, polled from one
/// stats endpoint (a router aggregates its whole fleet).
fn cmd_top(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: bix top --addr HOST:PORT [--interval-ms MS] [--iterations N (0 = forever)]";
    let addr = flag_value(args, "--addr").ok_or(USAGE)?;
    let interval_ms = u64_flag(args, "--interval-ms", 2_000)?.max(1);
    let iterations = u64_flag(args, "--iterations", 0)?;
    let mut prev: Vec<(String, f64)> = Vec::new();
    let mut tick = 0u64;
    loop {
        tick += 1;
        let text = Client::connect_with_timeout(addr.as_str(), Duration::from_secs(5))
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?
            .stats(StatsFormat::Json)
            .map_err(|e| e.to_string())?;
        let doc = json::parse(&text).map_err(|e| format!("bad stats JSON from {addr}: {e}"))?;
        let rows = top_rows(&doc);

        let dash = "-".to_string();
        let fmt = |v: Option<f64>| v.map_or_else(|| dash.clone(), |v| format!("{v:.2}"));
        println!("bix top — {addr} — tick {tick} (every {interval_ms} ms)");
        println!(
            "{:<10} {:>9} {:>10} {:>8} {:>9} {:>9} {:>9}",
            "node", "state", "requests", "qps", "p50_ms", "p99_ms", "inflight"
        );
        let mut next_prev = Vec::with_capacity(rows.len());
        for row in &rows {
            // Request rate is the delta against this node's previous
            // sample; the first tick (and any node that just appeared
            // or restarted) shows "-".
            let qps = row.requests.and_then(|cur| {
                next_prev.push((row.label.clone(), cur));
                let (_, last) = prev.iter().find(|(l, _)| *l == row.label)?;
                (cur >= *last).then(|| (cur - last) * 1_000.0 / interval_ms as f64)
            });
            println!(
                "{:<10} {:>9} {:>10} {:>8} {:>9} {:>9} {:>9}",
                row.label,
                row.state(),
                row.requests
                    .map_or_else(|| dash.clone(), |v| format!("{v:.0}")),
                fmt(qps),
                fmt(row.p50_ms),
                fmt(row.p99_ms),
                row.inflight
                    .map_or_else(|| dash.clone(), |v| format!("{v:.0}")),
            );
        }
        println!();
        prev = next_prev;
        if iterations > 0 && tick >= iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// A `bix client` failure paired with the process exit code that
/// `main` should report, so scripts can branch on the outcome class
/// without parsing stderr.
struct CliFailure {
    exit_code: u8,
    message: String,
}

impl From<String> for CliFailure {
    fn from(message: String) -> CliFailure {
        CliFailure {
            exit_code: 2,
            message,
        }
    }
}

impl From<&str> for CliFailure {
    fn from(message: &str) -> CliFailure {
        CliFailure::from(message.to_string())
    }
}

impl From<ClientError> for CliFailure {
    fn from(err: ClientError) -> CliFailure {
        let exit_code = match &err {
            ClientError::Server { code, .. } => match code {
                WireErrorCode::Overloaded => 3,
                WireErrorCode::DeadlineExceeded => 4,
                WireErrorCode::Unavailable => 6,
                WireErrorCode::BadQuery => 7,
                WireErrorCode::Malformed => 8,
                _ => 2,
            },
            ClientError::Wire(_) => 8,
            ClientError::Io(_) | ClientError::Unexpected(_) => 2,
        };
        CliFailure {
            exit_code,
            message: err.to_string(),
        }
    }
}

const INGEST_USAGE: &str = "usage: bix ingest --addr HOST:PORT (--values V1,V2,... | --file PATH) \
     [--batch-size N]\n\
\n\
Streams values into a serving shard's in-memory delta index. The peer\n\
may also be a router, which forwards the batch to the shard owning the\n\
tail of the global row space. --file reads one value per line (blank\n\
lines and # comments skipped; '-' reads stdin). Values are split into\n\
batches of --batch-size (default 4096) and sent in order.\n\
\n\
Ingest is NOT idempotent, so failed batches are never retried\n\
automatically: on the first failure the command stops, reports how many\n\
rows were acknowledged, and the operator decides how to resume.\n\
Exit codes match `bix client` (3 = overloaded while a merge catches up,\n\
7 = a value is outside the indexed domain).";

fn cmd_ingest(args: &[String]) -> Result<(), CliFailure> {
    if args.first().map(String::as_str) == Some("help") || has_flag(args, "--help") {
        println!("{INGEST_USAGE}");
        return Ok(());
    }
    let addr = flag_value(args, "--addr").ok_or(INGEST_USAGE)?;
    let values: Vec<u64> = if let Some(csv) = flag_value(args, "--values") {
        csv.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().map_err(|_| format!("--values: {s} is not a u64")))
            .collect::<Result<_, String>>()?
    } else if let Some(file) = flag_value(args, "--file") {
        let contents = if file == "-" {
            use std::io::Read as _;
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            text
        } else {
            std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?
        };
        contents
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.parse().map_err(|_| format!("{file}: {l} is not a u64")))
            .collect::<Result<_, String>>()?
    } else {
        return Err(INGEST_USAGE.into());
    };
    if values.is_empty() {
        return Err("no values to ingest".into());
    }
    let batch_size: usize = match flag_value(args, "--batch-size") {
        None => 4096,
        Some(v) => v.parse().map_err(|_| "--batch-size must be a number")?,
    };
    if batch_size == 0 || batch_size > MAX_INGEST as usize {
        return Err(format!("--batch-size must be 1..={MAX_INGEST}").into());
    }
    let timeout = Duration::from_secs(30);
    let mut client = Client::connect_with_timeout(addr.as_str(), timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut sent = 0u64;
    let mut last_ack = None;
    for chunk in values.chunks(batch_size) {
        match client.ingest(chunk) {
            Ok(ack) => {
                sent += ack.appended;
                last_ack = Some(ack);
            }
            Err(e) => {
                eprintln!(
                    "{sent} of {} rows acknowledged before the failure; \
                     ingest is not idempotent, so nothing was retried",
                    values.len()
                );
                return Err(e.into());
            }
        }
    }
    let ack = last_ack.expect("non-empty values sent at least one batch");
    eprintln!(
        "ingested {sent} rows: delta holds {}, {} rows queryable in total",
        ack.delta_rows, ack.total_rows
    );
    Ok(())
}

const CLIENT_USAGE: &str =
    "usage: bix client <ping|query|table|batch|stats|slowlog|reload|shutdown|help> \
     --addr HOST:PORT [...]\n\
\n\
subcommands:\n\
  ping                     round-trip liveness check\n\
  query <predicate>        evaluate one predicate, print matching rows\n\
  table <expr> [--count]   evaluate a boolean multi-attribute expression\n\
                           against a catalog server (or a router over\n\
                           catalog shards); --count sums shard popcounts\n\
                           without materialising rows, and never degrades\n\
  batch <file>             evaluate predicates from <file> (one per line, # comments)\n\
  stats [--json]           fetch live metrics (Prometheus text by default)\n\
  slowlog                  fetch the slow-query log (JSON; a router\n\
                           aggregates its own log plus every shard's)\n\
  reload <path>            hot-swap the server's index from a server-side path\n\
  shutdown                 ask the server to drain and stop\n\
  help                     print this text\n\
\n\
common flags:\n\
  --addr HOST:PORT         server or router address (required)\n\
  --via-router HOST:PORT   alias for --addr, documenting that the peer\n\
                           is a scatter-gather router\n\
  --deadline-ms MS         per-request deadline (query/batch)\n\
  --eval-domain D          auto|compressed|decompressed (query/batch)\n\
  --retries N              transient-failure retries with jittered backoff\n\
                           (reconnects between attempts; default 0)\n\
  --allow-degraded         accept partial results when a router has lost\n\
                           shards; missing shards go to stderr, exit 5\n\
  --trace                  sample this query: print the assembled\n\
                           cross-process span tree on stderr (query)\n\
  --trace-out FILE         write the assembled spans as JSONL (query)\n\
\n\
exit codes:\n\
  0  success (full result)\n\
  2  usage, connection, or unclassified error\n\
  3  server overloaded (admission queue full)\n\
  4  request deadline exceeded\n\
  5  degraded reply: partial rows printed, some shards missing\n\
  6  shards unavailable and --allow-degraded not set\n\
  7  predicate rejected (bad query)\n\
  8  wire-level failure (malformed, truncated, or corrupt frames)";

fn cmd_client(args: &[String]) -> Result<(), CliFailure> {
    let sub = args.first().ok_or(CLIENT_USAGE)?;
    if sub == "help" || sub == "--help" {
        println!("{CLIENT_USAGE}");
        return Ok(());
    }
    let addr = flag_value(args, "--addr")
        .or_else(|| flag_value(args, "--via-router"))
        .ok_or("missing --addr HOST:PORT (or --via-router HOST:PORT)")?;
    let deadline_ms: u32 = match flag_value(args, "--deadline-ms") {
        None => 0,
        Some(v) => v.parse().map_err(|_| "--deadline-ms must be a number")?,
    };
    let retries: u32 = match flag_value(args, "--retries") {
        None => 0,
        Some(v) => v.parse().map_err(|_| "--retries must be a number")?,
    };
    let allow_degraded = has_flag(args, "--allow-degraded");
    let timeout = Duration::from_secs(30);
    let mut client = Client::connect_with_timeout(addr.as_str(), timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if retries > 0 {
        client = client.with_retry(RetryPolicy {
            max_retries: retries,
            ..RetryPolicy::standard(0xb1c5)
        });
    }
    client.set_allow_degraded(allow_degraded);
    let mut degraded: Option<Vec<u16>> = None;
    match sub.as_str() {
        "ping" => {
            client.ping()?;
            eprintln!("pong from {addr}");
        }
        "query" => {
            let predicate = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or(CLIENT_USAGE)?;
            let domain = parse_eval_domain(args)?;
            let traced = wants_trace(args);
            if traced {
                client.set_trace(TraceContext::generate());
            }
            let outcome = client.query_outcome(predicate, domain, deadline_ms)?;
            let missing = outcome.missing_shards().to_vec();
            let reply = outcome.into_value();
            for row in &reply.rows {
                println!("{row}");
            }
            eprintln!(
                "{} rows matched ({} bitmap scans, {} decompressions)",
                reply.rows.len(),
                reply.scans,
                reply.decompressions,
            );
            if traced {
                // The reply carries the whole fleet's span forest
                // (router admission, per-shard legs with retries, and
                // each shard's evaluation) already assembled into one
                // tree; re-hydrate it into a tracer to render.
                let spans = client.last_spans().to_vec();
                eprintln!(
                    "trace {:032x} ({} spans)",
                    client.trace().trace_id,
                    spans.len()
                );
                let assembled = Tracer::new();
                assembled.graft(None, &spans, 0);
                emit_trace(args, &assembled)?;
            }
            if !missing.is_empty() {
                degraded = Some(missing);
            }
        }
        "table" => {
            let text = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or(CLIENT_USAGE)?;
            let domain = parse_eval_domain(args)?;
            if has_flag(args, "--count") {
                let reply = client.table_count(text, domain, deadline_ms)?;
                println!("{}", reply.count);
                eprintln!(
                    "{} rows matched ({} bitmap scans, {} decompressions; \
                     count pushdown, rows never left the shards)",
                    reply.count, reply.scans, reply.decompressions,
                );
            } else {
                let outcome = client.table_query_outcome(text, domain, deadline_ms)?;
                let missing = outcome.missing_shards().to_vec();
                let reply = outcome.into_value();
                for row in &reply.rows {
                    println!("{row}");
                }
                eprintln!(
                    "{} rows matched ({} bitmap scans, {} decompressions)",
                    reply.rows.len(),
                    reply.scans,
                    reply.decompressions,
                );
                if !missing.is_empty() {
                    degraded = Some(missing);
                }
            }
        }
        "batch" => {
            let file = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or(CLIENT_USAGE)?;
            let domain = parse_eval_domain(args)?;
            let contents =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let predicates: Vec<String> = contents
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect();
            if predicates.is_empty() {
                return Err(format!("{file} contains no predicates").into());
            }
            let outcome = client.batch_outcome(&predicates, domain, deadline_ms)?;
            let missing = outcome.missing_shards().to_vec();
            let replies = outcome.into_value();
            let mut scans = 0u64;
            for (text, reply) in predicates.iter().zip(&replies) {
                println!("{text}\t{} rows\t{} scans", reply.rows.len(), reply.scans);
                scans += reply.scans;
            }
            eprintln!("{} queries: {} scans", replies.len(), scans);
            if !missing.is_empty() {
                degraded = Some(missing);
            }
        }
        "stats" => {
            let format = if has_flag(args, "--json") {
                StatsFormat::Json
            } else {
                StatsFormat::Prometheus
            };
            print!("{}", client.stats(format)?);
        }
        "slowlog" => {
            println!("{}", client.slowlog()?);
        }
        "reload" => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or(CLIENT_USAGE)?;
            client.reload(path)?;
            eprintln!("reloaded {path}");
        }
        "shutdown" => {
            client.shutdown()?;
            eprintln!("server draining");
        }
        other => {
            return Err(format!("unknown client subcommand {other}\n{CLIENT_USAGE}").into());
        }
    }
    let stats = client.client_stats();
    if stats.retries > 0 {
        eprintln!(
            "{} transient failure(s) retried ({} reconnects)",
            stats.retries, stats.reconnects
        );
    }
    if let Some(missing) = degraded {
        let list: Vec<String> = missing.iter().map(u16::to_string).collect();
        return Err(CliFailure {
            exit_code: 5,
            message: format!(
                "degraded reply: rows from shard(s) {} are missing",
                list.join(",")
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_exit_codes_are_distinct_per_error_class() {
        let server = |code| ClientError::Server {
            code,
            message: String::new(),
        };
        let cases = [
            (server(WireErrorCode::Overloaded), 3),
            (server(WireErrorCode::DeadlineExceeded), 4),
            (server(WireErrorCode::Unavailable), 6),
            (server(WireErrorCode::BadQuery), 7),
            (server(WireErrorCode::Malformed), 8),
            (server(WireErrorCode::Internal), 2),
            (
                ClientError::Wire(chan_bitmap_index::server::WireError::Truncated),
                8,
            ),
            (ClientError::Io(std::io::Error::other("x")), 2),
        ];
        for (err, want) in cases {
            assert_eq!(CliFailure::from(err).exit_code, want);
        }
        // Every documented code appears in the help text.
        for code in [0, 2, 3, 4, 5, 6, 7, 8] {
            let entry = format!("\n{code}  ");
            assert!(CLIENT_USAGE.contains(&entry), "help must document {code}");
        }
    }

    #[test]
    fn predicate_grammar() {
        assert_eq!(parse_predicate("=5", 10).unwrap(), Query::equality(5));
        assert_eq!(parse_predicate("<=7", 10).unwrap(), Query::le(7));
        assert_eq!(parse_predicate(">=3", 10).unwrap(), Query::ge(3, 10));
        assert_eq!(parse_predicate("2..8", 10).unwrap(), Query::range(2, 8));
        assert_eq!(
            parse_predicate("in:1, 4,9", 10).unwrap(),
            Query::membership(vec![1, 4, 9])
        );
        assert!(parse_predicate("8..2", 10).is_err());
        assert!(parse_predicate("garbage", 10).is_err());
    }

    #[test]
    fn encoding_and_codec_parsing() {
        assert_eq!(parse_encoding("I").unwrap(), EncodingScheme::Interval);
        assert_eq!(
            parse_encoding("ei*").unwrap(),
            EncodingScheme::EqualityIntervalStar
        );
        assert_eq!(parse_encoding("i+").unwrap(), EncodingScheme::IntervalPlus);
        assert!(parse_encoding("Z").is_err());
        assert_eq!(parse_codec("BBC").unwrap(), CodecKind::Bbc);
        assert!(parse_codec("zip").is_err());
    }

    #[test]
    fn flag_value_extraction() {
        let args: Vec<String> = ["--a", "1", "--b", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--a"), Some("1".into()));
        assert_eq!(flag_value(&args, "--b"), Some("2".into()));
        assert_eq!(flag_value(&args, "--c"), None);
    }

    #[test]
    fn read_column_parses_csv_fields() {
        let path = std::env::temp_dir().join(format!("bix_cli_test_{}.csv", std::process::id()));
        std::fs::write(&path, "1,10\n2,20\n\n3,30\n").unwrap();
        assert_eq!(
            read_column(path.to_str().unwrap(), 0).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(
            read_column(path.to_str().unwrap(), 1).unwrap(),
            vec![10, 20, 30]
        );
        assert!(read_column(path.to_str().unwrap(), 2).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explain_command_prints_the_rewrite() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("bix_cli_explain_{}.csv", std::process::id()));
        let idx = dir.join(format!("bix_cli_explain_{}.bix", std::process::id()));
        std::fs::write(
            &csv,
            (0..50u64)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
            "--encoding".into(),
            "R".into(),
        ])
        .expect("build");
        cmd_explain(&[idx.to_string_lossy().into_owned(), "=4".into()]).expect("explain");
        assert!(cmd_explain(&[idx.to_string_lossy().into_owned(), "garbage".into()]).is_err());
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn batch_query_end_to_end() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("bix_cli_batch_{pid}.csv"));
        let idx = dir.join(format!("bix_cli_batch_{pid}.bix"));
        let batch = dir.join(format!("bix_cli_batch_{pid}.txt"));
        let column: Vec<String> = (0..500u64).map(|i| (i % 20).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();
        std::fs::write(&batch, "# comment\n=3\n\n5..10\nin:1,4,19\n").unwrap();

        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
        ])
        .expect("build");

        cmd_query(&[
            idx.to_string_lossy().into_owned(),
            "--batch".into(),
            batch.to_string_lossy().into_owned(),
            "--parallel".into(),
            "3".into(),
        ])
        .expect("batch query");

        // Bad predicate inside the batch file is reported with its line.
        std::fs::write(&batch, "=3\ngarbage\n").unwrap();
        let err = cmd_query(&[
            idx.to_string_lossy().into_owned(),
            "--batch".into(),
            batch.to_string_lossy().into_owned(),
        ])
        .unwrap_err();
        assert!(err.contains(":2:"), "{err}");

        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&idx).ok();
        std::fs::remove_file(&batch).ok();
    }

    #[test]
    fn eval_domain_flag_is_parsed_and_accepted_on_both_query_paths() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("bix_cli_domain_{pid}.csv"));
        let idx = dir.join(format!("bix_cli_domain_{pid}.bix"));
        let batch = dir.join(format!("bix_cli_domain_{pid}.txt"));
        let column: Vec<String> = (0..2_000u64).map(|i| (i % 16).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();
        std::fs::write(&batch, "=3\n5..10\n").unwrap();

        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
            "--codec".into(),
            "wah".into(),
        ])
        .expect("build");

        for domain in ["auto", "compressed", "raw"] {
            cmd_query(&[
                idx.to_string_lossy().into_owned(),
                "in:1,7,13".into(),
                "--eval-domain".into(),
                domain.into(),
            ])
            .unwrap_or_else(|e| panic!("single query, domain {domain}: {e}"));
            cmd_query(&[
                idx.to_string_lossy().into_owned(),
                "--batch".into(),
                batch.to_string_lossy().into_owned(),
                "--parallel".into(),
                "2".into(),
                "--eval-domain".into(),
                domain.into(),
            ])
            .unwrap_or_else(|e| panic!("batch query, domain {domain}: {e}"));
        }

        let err = cmd_query(&[
            idx.to_string_lossy().into_owned(),
            "=3".into(),
            "--eval-domain".into(),
            "sideways".into(),
        ])
        .unwrap_err();
        assert!(err.contains("--eval-domain"), "{err}");

        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&idx).ok();
        std::fs::remove_file(&batch).ok();
    }

    #[test]
    fn stats_trace_and_metrics_outputs() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("bix_cli_stats_{pid}.csv"));
        let idx = dir.join(format!("bix_cli_stats_{pid}.bix"));
        let trace_out = dir.join(format!("bix_cli_stats_{pid}.jsonl"));
        let metrics_out = dir.join(format!("bix_cli_stats_{pid}.metrics.json"));
        let build_metrics = dir.join(format!("bix_cli_stats_{pid}.build.json"));
        let column: Vec<String> = (0..500u64).map(|i| (i % 20).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();

        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
            "--metrics-out".into(),
            build_metrics.to_string_lossy().into_owned(),
        ])
        .expect("build");
        let parsed = bix_telemetry::json::parse(&std::fs::read_to_string(&build_metrics).unwrap())
            .expect("build metrics parse");
        assert!(parsed.get("metrics").is_some());

        // stats: both exposition formats produced from a fresh load.
        cmd_stats(&[idx.to_string_lossy().into_owned()]).expect("stats text");
        cmd_stats(&[idx.to_string_lossy().into_owned(), "--json".into()]).expect("stats json");
        assert!(cmd_stats(&[]).is_err());

        // query --trace-out --metrics-out: spans are valid JSONL, the
        // snapshot parses and carries phase histograms + io counters.
        cmd_query(&[
            idx.to_string_lossy().into_owned(),
            "in:1,7,13".into(),
            "--trace-out".into(),
            trace_out.to_string_lossy().into_owned(),
            "--metrics-out".into(),
            metrics_out.to_string_lossy().into_owned(),
        ])
        .expect("traced query");

        let jsonl = std::fs::read_to_string(&trace_out).unwrap();
        assert!(
            jsonl.lines().count() >= 4,
            "expected a span tree, got:\n{jsonl}"
        );
        for line in jsonl.lines() {
            bix_telemetry::json::parse(line).expect("span line parses");
        }
        let snapshot = std::fs::read_to_string(&metrics_out).unwrap();
        let parsed = bix_telemetry::json::parse(&snapshot).expect("metrics snapshot parses");
        let names: Vec<String> = parsed
            .get("metrics")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        for expected in [
            "bix_index_rows",
            "bix_io_pages_read_total",
            "bix_queries_total",
            "bix_phase_eval_nanos",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected}: {names:?}"
            );
        }

        for f in [&csv, &idx, &trace_out, &metrics_out, &build_metrics] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn explain_prints_per_constituent_costs() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("bix_cli_excost_{pid}.csv"));
        let idx = dir.join(format!("bix_cli_excost_{pid}.bix"));
        let column: Vec<String> = (0..200u64).map(|i| (i % 20).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();
        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
        ])
        .expect("build");

        // Multi-constituent membership query: predictions exist per
        // constituent and agree with the merged expression's leaf count.
        let index = BitmapIndex::load(&idx).expect("load");
        let q = parse_predicate("in:1,7,13", 20).unwrap();
        let cost = CostModel::default();
        let merged = index.rewrite(&q);
        let total = index.predict_cost(&merged, &cost);
        assert_eq!(total.scans, merged.scan_count());
        assert!(total.bytes > 0);
        assert!(total.seconds > 0.0);
        let per: Vec<_> = index
            .rewrite_constituents(&q)
            .iter()
            .map(|c| index.predict_cost(c, &cost))
            .collect();
        assert!(per.len() > 1);
        assert!(per.iter().map(|p| p.scans).sum::<usize>() >= total.scans);

        cmd_explain(&[idx.to_string_lossy().into_owned(), "in:1,7,13".into()])
            .expect("explain with costs");
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn build_query_info_end_to_end() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("bix_cli_e2e_{}.csv", std::process::id()));
        let idx = dir.join(format!("bix_cli_e2e_{}.bix", std::process::id()));
        let column: Vec<String> = (0..200u64).map(|i| (i % 10).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();

        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
            "--encoding".into(),
            "I".into(),
            "--codec".into(),
            "bbc".into(),
        ])
        .expect("build");

        let mut loaded = BitmapIndex::load(&idx).expect("load");
        assert_eq!(loaded.rows(), 200);
        assert_eq!(loaded.evaluate(&Query::equality(3)).count_ones(), 20);

        cmd_info(&[idx.to_string_lossy().into_owned()]).expect("info");
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn catalog_build_query_explain_verify_end_to_end() {
        let dir = std::env::temp_dir().join(format!("bix_cli_cat_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("table.csv");
        let cat = dir.join("star.bixcat");
        let mut text = String::from("region,store,discount\n");
        for i in 0..200u64 {
            text.push_str(&format!("{},{},{}\n", i % 4, (i * 7) % 20, (i * 3) % 10));
        }
        std::fs::write(&csv, text).unwrap();

        let csv_s = csv.to_string_lossy().into_owned();
        let cat_s = cat.to_string_lossy().into_owned();
        cmd_buildcat(&[
            "--input".into(),
            csv_s.clone(),
            "--out".into(),
            cat_s.clone(),
            "--encoding".into(),
            "EI*".into(),
        ])
        .expect("buildcat");
        cmd_verify(std::slice::from_ref(&cat_s)).expect("fresh catalog verifies");

        let expr = "region in {0, 1} and (discount >= 7 or not store = 12)";
        cmd_query(&["--catalog".into(), cat_s.clone(), expr.into()]).expect("catalog query");
        cmd_query(&[
            "--catalog".into(),
            cat_s.clone(),
            expr.into(),
            "--count".into(),
            "--parallel".into(),
            "2".into(),
        ])
        .expect("catalog count");
        cmd_explain(&["--catalog".into(), cat_s.clone(), expr.into()]).expect("catalog explain");

        // Malformed expressions and unknown attributes are typed errors.
        assert!(cmd_query(&["--catalog".into(), cat_s.clone(), "region in {".into()]).is_err());
        assert!(cmd_explain(&["--catalog".into(), cat_s.clone(), "nope = 1".into()]).is_err());

        // Header-shape problems are reported with the line number.
        std::fs::write(&csv, "a,b\n1\n").unwrap();
        let err = cmd_buildcat(&["--input".into(), csv_s, "--out".into(), cat_s]).unwrap_err();
        assert!(err.contains(":2:"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Builds a 200-row index file for the verify/repair tests and returns
    /// its path. 200 rows = 25 bytes per raw bitmap with no padding bits,
    /// so flipping any stored byte is a real corruption.
    fn build_index_file(tag: &str, encoding: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("bix_cli_{tag}_{pid}.csv"));
        let idx = dir.join(format!("bix_cli_{tag}_{pid}.bix"));
        let column: Vec<String> = (0..200u64).map(|i| (i % 10).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();
        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
            "--encoding".into(),
            encoding.into(),
        ])
        .expect("build");
        std::fs::remove_file(&csv).ok();
        idx
    }

    /// Flips the final byte of the file, which lives inside the last
    /// stored bitmap's payload.
    fn corrupt_last_byte(path: &std::path::Path) {
        let mut bytes = std::fs::read(path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn verify_detects_and_repair_fixes_file_corruption() {
        let idx = build_index_file("repairable", "E");
        cmd_verify(&[idx.to_string_lossy().into_owned()]).expect("clean file verifies");

        corrupt_last_byte(&idx);
        let err = cmd_verify(&[idx.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // Equality encoding: a single lost slot is the complement of the
        // surviving slots, so repair rebuilds it and rewrites the file.
        cmd_repair(&[idx.to_string_lossy().into_owned()]).expect("repair");
        cmd_verify(&[idx.to_string_lossy().into_owned()]).expect("repaired file verifies");

        // The repaired index answers queries over the rebuilt slot exactly.
        let mut loaded = BitmapIndex::load(&idx).expect("strict load after repair");
        assert_eq!(loaded.evaluate(&Query::equality(9)).count_ones(), 20);
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn repair_refuses_to_save_an_unrepairable_index() {
        // Range encoding carries no redundancy: losing one slot is
        // unrecoverable, so repair must fail and leave the file untouched.
        let idx = build_index_file("unrepairable", "R");
        corrupt_last_byte(&idx);
        let before = std::fs::read(&idx).unwrap();

        let err = cmd_repair(&[idx.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.contains("not saving"), "{err}");
        assert_eq!(
            std::fs::read(&idx).unwrap(),
            before,
            "failed repair must not rewrite the index file"
        );
        assert!(cmd_verify(&[idx.to_string_lossy().into_owned()]).is_err());
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn repair_writes_to_a_separate_output_when_asked() {
        let idx = build_index_file("repair_out", "E");
        corrupt_last_byte(&idx);
        let out = idx.with_extension("repaired.bix");
        let damaged = std::fs::read(&idx).unwrap();

        cmd_repair(&[
            idx.to_string_lossy().into_owned(),
            "--out".into(),
            out.to_string_lossy().into_owned(),
        ])
        .expect("repair with --out");
        assert_eq!(
            std::fs::read(&idx).unwrap(),
            damaged,
            "--out must leave the damaged input alone"
        );
        cmd_verify(&[out.to_string_lossy().into_owned()]).expect("repaired copy verifies");
        std::fs::remove_file(&idx).ok();
        std::fs::remove_file(&out).ok();
    }
}
