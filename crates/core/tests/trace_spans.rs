//! Span-tracing integration: the sequential query path must emit a span
//! tree with nested phases whose child durations sum to at most the
//! parent's, and the traced variants must stay bit-identical to the
//! untraced ones.

use bix_core::{
    BitmapIndex, BufferPool, CostModel, EncodingScheme, EvalDomain, EvalStrategy, IndexConfig,
    MetricsRegistry, ParallelExecutor, Query, ShardedBufferPool, SpanRecord, Tracer,
};

fn test_index() -> BitmapIndex {
    let column: Vec<u64> = (0..30_000u64).map(|i| (i * 37 + i / 13) % 50).collect();
    let config = IndexConfig::n_components(50, EncodingScheme::Interval, 2);
    BitmapIndex::build(&column, &config)
}

/// Every `node` span of the shared DAG fold carries the domain its value
/// ended up in, the cost model's prediction and its ready-queue wait.
fn assert_node_span_schema(records: &[SpanRecord]) {
    let nodes: Vec<&SpanRecord> = records.iter().filter(|r| r.phase() == "node").collect();
    assert!(!nodes.is_empty(), "per-node spans recorded");
    for r in nodes {
        for key in ["domain", "predicted_ns", "wait_ns"] {
            assert!(
                r.attrs.iter().any(|(k, _)| k == key),
                "{} lacks {key}: {:?}",
                r.name,
                r.attrs
            );
        }
    }
}

/// Child spans must start and end inside their parent's window, so the
/// sum of any span's direct children's durations is bounded by its own.
fn assert_tree_invariants(records: &[SpanRecord]) {
    for r in records {
        if let Some(p) = r.parent {
            let p = &records[p.raw() as usize];
            assert!(
                r.start_ns >= p.start_ns,
                "{} starts before {}",
                r.name,
                p.name
            );
            assert!(r.end_ns <= p.end_ns, "{} outlives {}", r.name, p.name);
        }
    }
    for (i, parent) in records.iter().enumerate() {
        let child_sum: u64 = records
            .iter()
            .filter(|r| r.parent.map(|p| p.raw() as usize) == Some(i))
            .map(SpanRecord::duration_ns)
            .sum();
        assert!(
            child_sum <= parent.duration_ns(),
            "children of {} sum to {child_sum}ns > parent {}ns",
            parent.name,
            parent.duration_ns()
        );
    }
}

#[test]
fn sequential_trace_has_nested_phases() {
    let mut index = test_index();
    let tracer = Tracer::new();
    let mut pool = BufferPool::new(4096);
    let q = Query::membership(vec![0, 7, 13, 37, 49]);

    let root = tracer.span("query", None);
    let root_id = root.id();
    let traced = index.evaluate_detailed_with_domain(
        &q,
        &mut pool,
        EvalStrategy::ComponentWise,
        EvalDomain::default(),
        &CostModel::default(),
        &tracer,
        root_id,
    );
    root.finish();

    let untraced = index.evaluate(&q);
    assert_eq!(traced.bitmap, untraced, "tracing must not change results");

    let records = tracer.records();
    assert_tree_invariants(&records);
    assert_node_span_schema(&records);

    // The acceptance criterion: at least 4 distinct nested phases.
    let phases: std::collections::BTreeSet<&str> = records.iter().map(SpanRecord::phase).collect();
    for expected in [
        "query",
        "rewrite",
        "decompose",
        "constituent",
        "eval",
        "fetch",
        "read",
        "fold",
    ] {
        assert!(
            phases.contains(expected),
            "missing phase {expected}: {phases:?}"
        );
    }

    // Depth: query -> rewrite -> constituent -> decompose is 4 levels.
    fn depth_of<'a>(records: &'a [SpanRecord], mut r: &'a SpanRecord) -> usize {
        let mut d = 0;
        while let Some(p) = r.parent {
            r = &records[p.raw() as usize];
            d += 1;
        }
        d
    }
    let max_depth = records.iter().map(|r| depth_of(&records, r)).max().unwrap();
    assert!(
        max_depth >= 3,
        "expected >= 4 nesting levels, got {}",
        max_depth + 1
    );

    // Rendered forms agree with the records.
    let tree = tracer.render_tree();
    assert!(tree.lines().count() == records.len());
    for line in tracer.render_jsonl().lines() {
        bix_telemetry::json::parse(line).expect("JSONL line parses");
    }
}

#[test]
fn parallel_trace_covers_every_query_and_node_waits() {
    let index = test_index();
    let pool = ShardedBufferPool::new(4096, 4);
    let queries = vec![
        Query::equality(7),
        Query::range(3, 20),
        Query::membership(vec![0, 4, 8, 12]),
    ];
    let tracer = Tracer::new();
    let batch = ParallelExecutor::new(2)
        .with_inner_threads(2)
        .execute_full_delta(
            &index,
            None,
            &queries,
            &pool,
            &CostModel::default(),
            &tracer,
            None,
            None,
        )
        .expect("no deadline");
    assert_eq!(batch.results.len(), queries.len());

    let records = tracer.records();
    let count_phase = |p: &str| records.iter().filter(|r| r.phase() == p).count();
    assert_eq!(count_phase("batch"), 1);
    assert_eq!(count_phase("query"), queries.len());
    assert_eq!(count_phase("fold"), queries.len());
    assert!(count_phase("node") > 0, "per-node spans recorded");
    assert!(
        records
            .iter()
            .filter(|r| r.phase() == "node")
            .all(|r| r.attrs.iter().any(|(k, _)| k == "wait_ns")),
        "every node span carries queue-wait time"
    );
    assert_node_span_schema(&records);

    // Tracing off: identical results, no records.
    let off = Tracer::disabled();
    let plain = ParallelExecutor::new(2)
        .execute_full_delta(
            &index,
            None,
            &queries,
            &pool,
            &CostModel::default(),
            &off,
            None,
            None,
        )
        .expect("no deadline");
    for (a, b) in plain.results.iter().zip(&batch.results) {
        assert_eq!(a.bitmap, b.bitmap);
    }
    assert!(off.records().is_empty());
}

#[test]
fn observe_trace_aggregates_phase_histograms() {
    let mut index = test_index();
    let tracer = Tracer::new();
    let mut pool = BufferPool::new(4096);
    index.evaluate_detailed_with_domain(
        &Query::range(5, 30),
        &mut pool,
        EvalStrategy::ComponentWise,
        EvalDomain::default(),
        &CostModel::default(),
        &tracer,
        None,
    );
    let registry = MetricsRegistry::new();
    registry.observe_trace(&tracer);
    let snapshot = registry.snapshot();
    let names: Vec<&str> = snapshot.entries.iter().map(|e| e.name.as_str()).collect();
    for metric in [
        "bix_phase_eval_nanos",
        "bix_phase_fetch_nanos",
        "bix_phase_read_nanos",
    ] {
        assert!(names.contains(&metric), "missing {metric} in {names:?}");
    }
}
