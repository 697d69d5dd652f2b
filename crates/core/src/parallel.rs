//! Parallel batch query execution, and the one DAG fold every
//! component-wise evaluation runs.
//!
//! The paper's evaluator answers one query at a time against a disk whose
//! head position is part of the simulation state. A warehouse workload
//! arrives as *batches* of selection queries, which parallelize on two
//! axes:
//!
//! * **Across queries** — each query's rewrite and evaluation is
//!   independent; a fixed worker pool drains the batch.
//! * **Within a query** — the §6.3 streaming evaluator's expression DAG
//!   has independent subtrees (different components' bitmaps, disjoint
//!   constituents); a dependency-counting scheduler folds ready nodes
//!   concurrently.
//!
//! That scheduler is the crate's only component-wise DAG fold: the
//! sequential [`crate::EvalStrategy::ComponentWise`] path prefetches its
//! leaves through the exclusive buffer pool and runs the same fold at
//! one worker, so both paths make identical per-node domain choices and
//! emit the same per-node spans.
//!
//! Batch reads go through [`bix_storage::BitmapStore::read_shared`]
//! (`&self`) and the lock-striped [`ShardedBufferPool`]; every thread
//! carries its own [`ReadContext`] (disk head + I/O counters, one
//! simulated disk arm per thread), merged into the batch totals — and
//! charged back to the store's global counters — when the batch
//! completes.
//!
//! Hash-consing guarantees each distinct bitmap appears as exactly one DAG
//! leaf and is therefore scanned exactly once per query, so batch-level
//! scan counts are identical to running
//! [`crate::EvalStrategy::ComponentWise`] sequentially (seek counts
//! differ: heads are per-thread).

use crate::eval::{predict_ns, reads_compressed, Dag, NodeOp, NodeVal};
use crate::multi::PlanEvalResult;
use crate::plan::Plan;
use crate::{
    BitmapIndex, BitmapRef, DeltaIndex, DomainCostModel, EvalDomain, EvalResult, Expr,
    IndexedTable, Query,
};
use bix_bitvec::Bitvec;
use bix_compress::{BitOp, CodecKind};
use bix_storage::{CostModel, IoStats, ReadContext, ShardedBufferPool};
use bix_telemetry::{SpanId, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Returned by [`ParallelExecutor::execute_full_delta`] and
/// [`ParallelExecutor::execute_plan_full`] when the deadline passed
/// before every query in the batch finished. Partial results are
/// discarded: a served query is either complete and bit-exact or not
/// answered at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline exceeded before the batch completed")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// Shared cancellation state for one deadline-bounded batch: the wall
/// deadline plus a sticky flag so that, once any worker observes expiry,
/// every other worker short-circuits without re-reading the clock.
pub(crate) struct Cancel {
    deadline: Instant,
    expired: std::sync::atomic::AtomicBool,
}

impl Cancel {
    fn new(deadline: Instant) -> Cancel {
        Cancel {
            deadline,
            expired: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// True once the deadline has passed. Checked between DAG nodes and
    /// between queries — the enforcement points of a request deadline —
    /// so a single node's work is the cancellation latency bound.
    fn expired(&self) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        if Instant::now() >= self.deadline {
            self.expired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// Executes batches of selection queries concurrently against one index.
///
/// Each query runs the same rewrite and the same §6.3 DAG fold as
/// [`BitmapIndex::evaluate_detailed`] with
/// [`crate::EvalStrategy::ComponentWise`], so results, scan counts and
/// the raw/compressed node mix match it exactly; only the buffer pool
/// (lock-striped, shared) and the per-thread disk heads differ.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    threads: usize,
    inner_threads: Option<usize>,
    domain: EvalDomain,
}

impl ParallelExecutor {
    /// An executor with a total budget of `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        ParallelExecutor {
            threads,
            inner_threads: None,
            domain: EvalDomain::default(),
        }
    }

    /// Sets the [`EvalDomain`] every query's DAG fold runs in (default
    /// [`EvalDomain::Auto`]).
    pub fn with_domain(mut self, domain: EvalDomain) -> Self {
        self.domain = domain;
        self
    }

    /// Overrides how many threads fold each individual query's DAG.
    ///
    /// By default the budget is spent across queries first (one thread per
    /// query while the batch is wide), and only batches narrower than the
    /// thread count get within-query workers. Forcing `n > 1` exercises
    /// within-query folding regardless of batch width.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_inner_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one inner thread");
        self.inner_threads = Some(n);
        self
    }

    /// The total thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates every query in `queries`, fanning out over the executor's
    /// threads. Results arrive in input order. I/O is charged per-thread
    /// and merged; the merged counters are also added to the index store's
    /// global statistics so sequential-style accounting keeps working.
    pub fn execute(
        &self,
        index: &BitmapIndex,
        queries: &[Query],
        pool: &ShardedBufferPool,
        cost: &CostModel,
    ) -> BatchResult {
        self.execute_full_delta(
            index,
            None,
            queries,
            pool,
            cost,
            &Tracer::disabled(),
            None,
            None,
        )
        .expect("no deadline, cannot expire")
    }

    /// [`ParallelExecutor::execute`] with every option: the `main ∪
    /// delta` overlay, span tracing and a wall-clock deadline.
    ///
    /// * `delta` — every query's result is the main index's answer with
    ///   the in-memory delta tail appended ([`DeltaIndex::overlay`]), so
    ///   mid-ingest batches are bit-identical to a from-scratch rebuild
    ///   over the concatenated column.
    /// * `tracer`/`parent` — records a `batch` span under `parent` with
    ///   one `query` child per batch entry (opened on whichever worker
    ///   thread picks the query up) and, inside each query, the rewrite /
    ///   build / fold phases with per-DAG-node spans carrying domain,
    ///   predicted and queue-wait time. A disabled tracer records nothing.
    /// * `deadline` — checked between queries and between DAG nodes; once
    ///   it passes, remaining work is abandoned (leaf reads and bitwise
    ///   ops are skipped) and the whole batch returns
    ///   [`DeadlineExceeded`]. Partial answers are never handed out, but
    ///   the spans recorded up to that point survive in the tracer.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_full_delta(
        &self,
        index: &BitmapIndex,
        delta: Option<&DeltaIndex>,
        queries: &[Query],
        pool: &ShardedBufferPool,
        cost: &CostModel,
        tracer: &Tracer,
        parent: Option<SpanId>,
        deadline: Option<Instant>,
    ) -> Result<BatchResult, DeadlineExceeded> {
        let started = Instant::now();
        let cancel = deadline.map(Cancel::new);
        let batch_span = tracer.span("batch", parent);
        batch_span.attr("queries", queries.len());
        batch_span.attr("threads", self.threads);
        let batch_id = batch_span.id();

        let results = self.drain(queries, cancel.as_ref(), |qi, q, inner| {
            let q_span = tracer
                .is_enabled()
                .then(|| tracer.span(&format!("query {qi}"), batch_id));
            let q_id = q_span.as_ref().and_then(|s| s.id());
            let result = evaluate_one(
                index,
                delta,
                q,
                pool,
                inner,
                self.domain,
                cost,
                tracer,
                q_id,
                cancel.as_ref(),
            );
            if let Some(span) = &q_span {
                span.attr("scans", result.scans);
                span.attr("pages", result.io.pages_read);
            }
            result
        })?;

        let mut io = IoStats::new();
        let mut io_seconds = 0.0;
        let mut cpu_seconds = 0.0;
        for r in &results {
            io += r.io;
            io_seconds += r.io_seconds;
            cpu_seconds += r.cpu_seconds;
        }
        index.store().charge(io);

        Ok(BatchResult {
            results,
            io,
            io_seconds,
            cpu_seconds,
            wall_seconds: started.elapsed().as_secs_f64(),
            threads: self.threads,
        })
    }

    /// Executes a multi-attribute [`Plan`] against an [`IndexedTable`]:
    /// every distinct literal becomes an independent work item (its
    /// per-attribute expression DAG is a root of the cross-index plan),
    /// drained by the executor's worker pool with the same adaptive
    /// domain selection as single-index batches. The clause fold runs
    /// word-wise on the calling thread once all literals land.
    pub fn execute_plan(
        &self,
        table: &IndexedTable,
        plan: &Plan,
        pool: &ShardedBufferPool,
        cost: &CostModel,
    ) -> PlanEvalResult {
        self.execute_plan_full(
            table,
            None,
            plan,
            pool,
            cost,
            &Tracer::disabled(),
            None,
            None,
        )
        .expect("no deadline, cannot expire")
    }

    /// [`ParallelExecutor::execute_plan`] with per-attribute delta
    /// overlays, span tracing, and a wall-clock deadline — the serving
    /// path. `deltas` is indexed by schema position; when present,
    /// every attribute the plan touches must carry a delta with the
    /// same appended row count.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_plan_full(
        &self,
        table: &IndexedTable,
        deltas: Option<&[Option<&DeltaIndex>]>,
        plan: &Plan,
        pool: &ShardedBufferPool,
        cost: &CostModel,
        tracer: &Tracer,
        parent: Option<SpanId>,
        deadline: Option<Instant>,
    ) -> Result<PlanEvalResult, DeadlineExceeded> {
        let cancel = deadline.map(Cancel::new);
        let deltas = deltas.unwrap_or(&[]);
        let lits = plan.distinct_literals();
        let plan_span = tracer.span("plan", parent);
        plan_span.attr("clauses", plan.clauses.len());
        plan_span.attr("literals", lits.len());
        let plan_id = plan_span.id();

        let results = self.drain(&lits, cancel.as_ref(), |li, lit, inner| {
            let index = table
                .index_at(lit.attr)
                .expect("plan literal within schema");
            let delta = deltas.get(lit.attr).copied().flatten();
            let span = tracer
                .is_enabled()
                .then(|| tracer.span(&format!("literal {li}"), plan_id));
            let span_id = span.as_ref().and_then(|s| s.id());
            let result = evaluate_one(
                index,
                delta,
                &lit.query,
                pool,
                inner,
                self.domain,
                cost,
                tracer,
                span_id,
                cancel.as_ref(),
            );
            if let Some(span) = &span {
                span.attr("scans", result.scans);
                span.attr("pages", result.io.pages_read);
            }
            result
        })?;

        for (lit, r) in lits.iter().zip(&results) {
            if let Some(index) = table.index_at(lit.attr) {
                index.store().charge(r.io);
            }
        }
        Ok(table.fold_plan(plan, &lits, results, deltas))
    }

    /// The batch work queue: `items` are drained by the calling thread
    /// and `outer - 1` scoped worker threads through an atomic cursor
    /// into per-item result slots, stopping early once `cancel`
    /// expires. `eval` receives the item's position, the item, and the
    /// threads its DAG fold may use (the budget left over after one
    /// thread per item). Results arrive in input order.
    fn drain<T: Sync>(
        &self,
        items: &[T],
        cancel: Option<&Cancel>,
        eval: impl Fn(usize, &T, usize) -> EvalResult + Sync,
    ) -> Result<Vec<EvalResult>, DeadlineExceeded> {
        let outer = self.threads.min(items.len()).max(1);
        let inner = self
            .inner_threads
            .unwrap_or_else(|| (self.threads / outer).max(1));
        let slots: Vec<Mutex<Option<EvalResult>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let run = || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if cancel.is_some_and(Cancel::expired) {
                    break;
                }
                let result = eval(i, item, inner);
                *slots[i].lock().expect("result slot") = Some(result);
            };
            for _ in 1..outer {
                scope.spawn(run);
            }
            run(); // the calling thread is worker 0
        });

        if cancel.is_some_and(Cancel::expired) {
            return Err(DeadlineExceeded);
        }
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every item evaluated")
            })
            .collect())
    }
}

/// The outcome of one parallel batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query outcomes, in input order.
    pub results: Vec<EvalResult>,
    /// Merged disk activity across all worker threads.
    pub io: IoStats,
    /// Simulated disk time summed over queries (the batch's aggregate
    /// cost-model I/O, as if each per-thread disk arm ran serially).
    pub io_seconds: f64,
    /// Measured CPU time summed over queries.
    pub cpu_seconds: f64,
    /// Real elapsed time for the whole batch.
    pub wall_seconds: f64,
    /// The executor's thread budget when this batch ran.
    pub threads: usize,
}

impl BatchResult {
    /// Total bitmap scans across the batch.
    pub fn total_scans(&self) -> usize {
        self.results.iter().map(|r| r.scans).sum()
    }

    /// Total distinct bitmaps referenced across the batch (per query;
    /// bitmaps shared between queries count once per query, as in
    /// sequential accounting).
    pub fn total_distinct(&self) -> usize {
        self.results.iter().map(|r| r.distinct_bitmaps).sum()
    }
}

/// Evaluates one query: rewrite, DAG fold (parallel if `inner > 1`), and
/// the existence-bitmap intersection — mirroring
/// [`BitmapIndex::evaluate_detailed`] with
/// [`crate::EvalStrategy::ComponentWise`]-equivalent scan accounting.
#[allow(clippy::too_many_arguments)]
fn evaluate_one(
    index: &BitmapIndex,
    delta: Option<&DeltaIndex>,
    q: &Query,
    pool: &ShardedBufferPool,
    inner: usize,
    domain: EvalDomain,
    cost: &CostModel,
    tracer: &Tracer,
    parent: Option<SpanId>,
    cancel: Option<&Cancel>,
) -> EvalResult {
    let started = Instant::now();
    let constituents = index.rewrite_constituents_traced(q, tracer, parent);
    let merged = Expr::or(constituents);
    let mut distinct = merged.scan_count();

    let build_span = tracer.span("build", parent);
    let dag = Dag::build(&merged);
    build_span.attr("nodes", dag.ops.len());
    build_span.finish();

    let fold_span = tracer.span("fold", parent);
    let model = index.domain_cost_model();
    let leaf = |r: BitmapRef, ctx: &mut ReadContext, dec: &mut usize| {
        let handle = index.handle(r.component, r.slot);
        let store = index.store();
        if reads_compressed(domain, handle, store.stored_size(handle), model) {
            let c = store
                .read_compressed_shared(handle, pool, ctx)
                .unwrap_or_else(|e| panic!("corrupt bitmap on an unguarded shared read path: {e}"));
            NodeVal::packed(c)
        } else {
            *dec += usize::from(handle.codec() != CodecKind::Raw);
            NodeVal::Raw(store.read_shared(handle, pool, ctx))
        }
    };
    let fold = fold_dag(
        &dag,
        index.rows(),
        &leaf,
        inner,
        domain,
        model,
        tracer,
        fold_span.id(),
        cancel,
    );
    let (mut bitmap, peak_resident, mut scans, mut io, mut decompressions) = (
        fold.bitmap,
        fold.peak_resident,
        fold.scans,
        fold.io,
        fold.decompressions,
    );
    fold_span.attr("workers", inner);
    fold_span.attr("decompressions", decompressions);
    fold_span.finish();

    if let Some(eb) = index.existence_handle() {
        if !cancel.is_some_and(Cancel::expired) {
            let span = tracer.span("existence", parent);
            let mut ctx = ReadContext::new();
            let existence = index.store().read_shared(eb, pool, &mut ctx);
            bitmap.and_assign(&existence);
            span.finish();
            scans += 1;
            distinct += 1;
            decompressions += usize::from(eb.codec() != CodecKind::Raw);
            io += ctx.take_stats();
        }
    }

    let mut result = EvalResult {
        bitmap,
        scans,
        distinct_bitmaps: distinct,
        io,
        io_seconds: cost.io_seconds(&io),
        cpu_seconds: cost.cpu_seconds(started.elapsed().as_secs_f64()),
        decompressions,
        peak_resident,
        nodes_raw: fold.nodes_raw,
        nodes_compressed: fold.nodes_compressed,
        delta_scans: 0,
        delta_rows: 0,
    };
    if let Some(delta) = delta {
        if !cancel.is_some_and(Cancel::expired) {
            let span = tracer.span("delta", parent);
            delta.overlay(q, &mut result);
            span.attr("delta_rows", result.delta_rows);
            span.finish();
        }
    }
    result
}

/// A ready-queue entry: the node index plus its enqueue time when
/// tracing is on (`None` when off, so the untraced hot path never calls
/// `Instant::now`). The stamp becomes the node span's `wait_ns` — time
/// spent ready but not yet picked up by a worker.
type ReadyEntry = (usize, Option<Instant>);

/// Shared state of one DAG fold: a dependency-counting scheduler.
/// A node becomes ready when all its children are computed; workers drain
/// the ready queue until every node has run.
struct FoldState {
    /// Ready-node queue plus count of nodes completed so far.
    ready: Mutex<(VecDeque<ReadyEntry>, usize)>,
    /// Wakes idle workers when nodes become ready or the fold finishes.
    wake: Condvar,
    /// Computed values (raw or still-compressed); freed (set back to
    /// `None`) at the last consumer.
    values: Vec<Mutex<Option<NodeVal>>>,
    /// Children still pending per node; a node is enqueued at zero.
    pending: Vec<AtomicUsize>,
    /// Remaining consumers per node (from [`Dag::refs`]).
    refs: Vec<AtomicUsize>,
    /// Leaf reads issued (one per distinct bitmap, by construction).
    scans: AtomicUsize,
    /// Compressed streams decoded to raw bitmaps so far.
    decompressions: AtomicUsize,
    /// Nodes whose computed value was a decoded bitmap / a compressed
    /// stream (the per-domain evaluation mix surfaced in `EvalResult`).
    nodes_raw: AtomicUsize,
    nodes_compressed: AtomicUsize,
    /// Live values now / at peak (for `peak_resident` accounting).
    resident: AtomicUsize,
    peak: AtomicUsize,
}

/// Everything one DAG fold produced.
pub(crate) struct FoldOutcome {
    pub(crate) bitmap: Bitvec,
    pub(crate) peak_resident: usize,
    pub(crate) scans: usize,
    pub(crate) io: IoStats,
    pub(crate) decompressions: usize,
    pub(crate) nodes_raw: usize,
    pub(crate) nodes_compressed: usize,
}

/// Produces one leaf's value on the worker that reaches it, counting
/// any decompression into the `usize`; reads through the worker's own
/// [`ReadContext`].
pub(crate) type LeafFn<'a> = dyn Fn(BitmapRef, &mut ReadContext, &mut usize) -> NodeVal + Sync + 'a;

/// Folds the DAG bottom-up with `workers` threads (the §6.3 evaluator's
/// independent-subtree parallelism); runs inline when `workers == 1`.
/// Compressed streams combine in the compressed domain and are decoded
/// (once, at the root, in the best case) where `domain`, `model` or the
/// codec require. Each node runs under a `node` span carrying the domain
/// its value ended up in, the model's predicted nanoseconds and its
/// queue wait.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_dag(
    dag: &Dag,
    rows: usize,
    leaf: &LeafFn<'_>,
    workers: usize,
    domain: EvalDomain,
    model: &DomainCostModel,
    tracer: &Tracer,
    parent: Option<SpanId>,
    cancel: Option<&Cancel>,
) -> FoldOutcome {
    let n = dag.ops.len();
    let parents: Vec<Vec<usize>> = {
        let mut parents = vec![Vec::new(); n];
        for (i, op) in dag.ops.iter().enumerate() {
            for c in op.children() {
                parents[c].push(i);
            }
        }
        parents
    };

    let state = FoldState {
        ready: Mutex::new((VecDeque::new(), 0)),
        wake: Condvar::new(),
        values: (0..n).map(|_| Mutex::new(None)).collect(),
        pending: dag
            .ops
            .iter()
            .map(|op| AtomicUsize::new(op.children().len()))
            .collect(),
        refs: dag.refs.iter().map(|&r| AtomicUsize::new(r)).collect(),
        scans: AtomicUsize::new(0),
        decompressions: AtomicUsize::new(0),
        nodes_raw: AtomicUsize::new(0),
        nodes_compressed: AtomicUsize::new(0),
        resident: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    };
    let enqueue_stamp = || tracer.is_enabled().then(Instant::now);
    {
        let mut ready = state.ready.lock().expect("ready queue");
        for (i, op) in dag.ops.iter().enumerate() {
            if op.children().is_empty() {
                ready.0.push_back((i, enqueue_stamp()));
            }
        }
    }

    let io = Mutex::new(IoStats::new());
    std::thread::scope(|scope| {
        let run = || {
            let mut ctx = ReadContext::new();
            worker_loop(
                dag, &parents, &state, rows, leaf, &mut ctx, n, domain, model, tracer, parent,
                cancel,
            );
            *io.lock().expect("io totals") += ctx.take_stats();
        };
        for _ in 1..workers {
            scope.spawn(run);
        }
        run(); // the calling thread is worker 0
    });

    let root_val = state.values[dag.root]
        .lock()
        .expect("root value")
        .take()
        .expect("root computed");
    let mut root_dec = 0usize;
    let result = root_val.into_raw(&mut root_dec);
    FoldOutcome {
        bitmap: result,
        peak_resident: state.peak.load(Ordering::Relaxed),
        scans: state.scans.load(Ordering::Relaxed),
        io: io.into_inner().expect("io totals"),
        decompressions: state.decompressions.load(Ordering::Relaxed) + root_dec,
        nodes_raw: state.nodes_raw.load(Ordering::Relaxed),
        nodes_compressed: state.nodes_compressed.load(Ordering::Relaxed),
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    dag: &Dag,
    parents: &[Vec<usize>],
    state: &FoldState,
    rows: usize,
    leaf: &LeafFn<'_>,
    ctx: &mut ReadContext,
    total: usize,
    domain: EvalDomain,
    model: &DomainCostModel,
    tracer: &Tracer,
    parent: Option<SpanId>,
    cancel: Option<&Cancel>,
) {
    loop {
        // Take a ready node, or sleep until one appears / the fold ends.
        let (node, enqueued) = {
            let mut ready = state.ready.lock().expect("ready queue");
            loop {
                if let Some(entry) = ready.0.pop_front() {
                    break entry;
                }
                if ready.1 == total {
                    return;
                }
                ready = state.wake.wait(ready).expect("ready queue");
            }
        };

        // Span covering this node's run time, annotated with how long it
        // sat in the ready queue before a worker picked it up.
        let node_span = enqueued.map(|t| {
            let kind = match &dag.ops[node] {
                NodeOp::Const(_) => "const",
                NodeOp::Leaf(_) => "leaf",
                NodeOp::Not(_) => "not",
                NodeOp::And(_) => "and",
                NodeOp::Or(_) => "or",
                NodeOp::Xor(..) => "xor",
            };
            let span = tracer.span(&format!("node {node} {kind}"), parent);
            span.attr("wait_ns", t.elapsed().as_nanos());
            span
        });
        // Sum of model predictions for the work this node performs
        // (tracing only; stays 0.0 on the untraced hot path).
        let mut predicted_ns = 0.0f64;

        let mut dec = 0usize;
        let value = if cancel.is_some_and(Cancel::expired) {
            // Deadline passed: complete the node without touching disk,
            // children, or kernels so the fold drains immediately. The
            // placeholder value is never handed out — the executor maps
            // the whole batch to `DeadlineExceeded`.
            NodeVal::Raw(Bitvec::zeros(0))
        } else {
            match &dag.ops[node] {
                NodeOp::Const(true) => NodeVal::Raw(Bitvec::ones_vec(rows)),
                NodeOp::Const(false) => NodeVal::Raw(Bitvec::zeros(rows)),
                NodeOp::Leaf(r) => {
                    state.scans.fetch_add(1, Ordering::Relaxed);
                    leaf(*r, ctx, &mut dec)
                }
                op => {
                    // Fold children, locking one value at a time. Children are
                    // all computed (dependency counts reached zero) and cannot
                    // be freed before this node — their consumer — runs.
                    let children = op.children();
                    let child = |c: usize| -> NodeVal {
                        state.values[c]
                            .lock()
                            .expect("child value")
                            .clone()
                            .expect("child computed")
                    };
                    let mut acc = child(children[0]);
                    match op {
                        NodeOp::Not(_) => {
                            if node_span.is_some() {
                                predicted_ns = predict_ns(&acc, None, model);
                            }
                            acc = acc.not(domain, model, &mut dec);
                        }
                        NodeOp::And(_) | NodeOp::Or(_) | NodeOp::Xor(..) => {
                            let bit_op = match op {
                                NodeOp::And(_) => BitOp::And,
                                NodeOp::Or(_) => BitOp::Or,
                                _ => BitOp::Xor,
                            };
                            for &c in &children[1..] {
                                let guard = state.values[c].lock().expect("child value");
                                let rhs = guard.as_ref().expect("child computed");
                                if node_span.is_some() {
                                    predicted_ns += predict_ns(&acc, Some(rhs), model);
                                }
                                acc = acc.combine(rhs, bit_op, domain, model, &mut dec);
                            }
                        }
                        NodeOp::Const(_) | NodeOp::Leaf(_) => unreachable!("handled above"),
                    }
                    acc
                }
            }
        };
        if dec > 0 {
            state.decompressions.fetch_add(dec, Ordering::Relaxed);
        }
        match &value {
            NodeVal::Raw(_) => &state.nodes_raw,
            NodeVal::Packed(..) => &state.nodes_compressed,
        }
        .fetch_add(1, Ordering::Relaxed);

        if let Some(span) = &node_span {
            span.attr("domain", value.domain_name());
            span.attr("predicted_ns", predicted_ns.round() as u64);
        }
        drop(node_span);
        *state.values[node].lock().expect("node value") = Some(value);
        let live = state.resident.fetch_add(1, Ordering::Relaxed) + 1;
        state.peak.fetch_max(live, Ordering::Relaxed);

        // Free children whose last consumer just ran.
        for c in dag.ops[node].children() {
            if state.refs[c].fetch_sub(1, Ordering::AcqRel) == 1
                && state.values[c]
                    .lock()
                    .expect("child value")
                    .take()
                    .is_some()
            {
                state.resident.fetch_sub(1, Ordering::Relaxed);
            }
        }

        // Mark complete; enqueue parents that just became ready.
        let mut newly_ready: Vec<usize> = Vec::new();
        for &p in &parents[node] {
            if state.pending[p].fetch_sub(1, Ordering::AcqRel) == 1 {
                newly_ready.push(p);
            }
        }
        {
            let stamp = tracer.is_enabled().then(Instant::now);
            let mut ready = state.ready.lock().expect("ready queue");
            ready.1 += 1;
            for p in newly_ready {
                ready.0.push_back((p, stamp));
            }
            if ready.1 == total {
                state.wake.notify_all();
            } else {
                state.wake.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferPool, EncodingScheme, EvalStrategy, IndexConfig};
    use bix_compress::CodecKind;

    fn test_index(codec: CodecKind) -> BitmapIndex {
        let column: Vec<u64> = (0..30_000u64).map(|i| (i * 37 + i / 13) % 50).collect();
        let config = IndexConfig::one_component(50, EncodingScheme::Interval).with_codec(codec);
        BitmapIndex::build(&column, &config)
    }

    fn test_queries() -> Vec<Query> {
        vec![
            Query::equality(7),
            Query::range(3, 20),
            Query::membership(vec![0, 4, 8, 12, 16, 49]),
            Query::le(25),
            Query::range(10, 40).not(),
            Query::membership((0..50).step_by(3).collect::<Vec<u64>>()),
        ]
    }

    /// Sequential ground truth for a query, plus its scan count.
    fn sequential(index: &mut BitmapIndex, q: &Query) -> EvalResult {
        let mut pool = BufferPool::new(4096);
        index.evaluate_detailed(
            q,
            &mut pool,
            EvalStrategy::ComponentWise,
            &CostModel::default(),
        )
    }

    #[test]
    fn plan_execution_matches_sequential_and_naive() {
        use crate::{Planner, TableQuery};
        let rows = 4000usize;
        let region: Vec<u64> = (0..rows).map(|i| (i * 7 % 8) as u64).collect();
        let store: Vec<u64> = (0..rows).map(|i| (i * 13 % 48) as u64).collect();
        let discount: Vec<u64> = (0..rows).map(|i| ((i * i) % 50) as u64).collect();
        let mut table = IndexedTable::new(rows);
        table.add_attribute(
            "region",
            &region,
            IndexConfig::one_component(8, EncodingScheme::Equality),
        );
        table.add_attribute(
            "store",
            &store,
            IndexConfig::one_component(48, EncodingScheme::Interval).with_codec(CodecKind::Wah),
        );
        table.add_attribute(
            "discount",
            &discount,
            IndexConfig::one_component(50, EncodingScheme::Interval),
        );
        let schema = table.schema();
        let q = TableQuery::parse(
            "region in {0, 1} and (discount >= 7 or not store = 12)",
            &schema,
        )
        .unwrap();
        let plan = Planner::new(&schema).plan(&q).unwrap();
        let naive = table.evaluate(&q);
        let sequential = table.execute_plan(&plan, &CostModel::default());
        assert_eq!(sequential.bitmap, naive);
        // COUNT pushdown agrees with materialized positions.
        assert_eq!(sequential.count(), naive.to_positions().len() as u64);
        for threads in [1usize, 2, 8] {
            let pool = ShardedBufferPool::new(4096, 8);
            let parallel = ParallelExecutor::new(threads).execute_plan(
                &table,
                &plan,
                &pool,
                &CostModel::default(),
            );
            assert_eq!(parallel.bitmap, naive, "t={threads}");
            assert_eq!(parallel.literals, sequential.literals);
            assert_eq!(parallel.scans, sequential.scans, "t={threads}");
        }
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        for codec in [CodecKind::Raw, CodecKind::Bbc] {
            let mut index = test_index(codec);
            let queries = test_queries();
            let expected: Vec<EvalResult> =
                queries.iter().map(|q| sequential(&mut index, q)).collect();

            for threads in [1usize, 2, 8] {
                let pool = ShardedBufferPool::new(4096, 8);
                let batch = ParallelExecutor::new(threads).execute(
                    &index,
                    &queries,
                    &pool,
                    &CostModel::default(),
                );
                assert_eq!(batch.results.len(), queries.len());
                for (i, (got, want)) in batch.results.iter().zip(&expected).enumerate() {
                    assert_eq!(got.bitmap, want.bitmap, "{codec} t={threads} q{i}");
                    assert_eq!(got.scans, want.scans, "{codec} t={threads} q{i}");
                    assert_eq!(got.distinct_bitmaps, want.distinct_bitmaps);
                }
            }
        }
    }

    #[test]
    fn within_query_folding_matches_sequential() {
        let mut index = test_index(CodecKind::Raw);
        let queries = test_queries();
        let pool = ShardedBufferPool::new(4096, 8);
        let batch = ParallelExecutor::new(4).with_inner_threads(4).execute(
            &index,
            &queries,
            &pool,
            &CostModel::default(),
        );
        for (i, q) in queries.iter().enumerate() {
            let want = sequential(&mut index, q);
            assert_eq!(batch.results[i].bitmap, want.bitmap, "q{i}");
            assert_eq!(batch.results[i].scans, want.scans, "q{i}");
        }
    }

    #[test]
    fn eval_domains_agree_and_compressed_decodes_less() {
        use bix_compress::CodecKind;
        for codec in [CodecKind::Bbc, CodecKind::Wah, CodecKind::Ewah] {
            let index = test_index(codec);
            let queries = test_queries();
            let pool = ShardedBufferPool::new(4096, 8);
            let raw = ParallelExecutor::new(4)
                .with_domain(EvalDomain::Raw)
                .execute(&index, &queries, &pool, &CostModel::default());
            for domain in [EvalDomain::Auto, EvalDomain::Compressed] {
                let pool = ShardedBufferPool::new(4096, 8);
                let got = ParallelExecutor::new(4).with_domain(domain).execute(
                    &index,
                    &queries,
                    &pool,
                    &CostModel::default(),
                );
                for (i, (g, w)) in got.results.iter().zip(&raw.results).enumerate() {
                    assert_eq!(g.bitmap, w.bitmap, "{codec} {domain:?} q{i}");
                    assert_eq!(g.scans, w.scans, "{codec} {domain:?} q{i}");
                    assert!(
                        g.decompressions <= w.decompressions,
                        "{codec} {domain:?} q{i}: {} > {}",
                        g.decompressions,
                        w.decompressions
                    );
                }
            }
            // Keeping every stream compressed decodes strictly less over
            // the batch: multi-leaf queries fold to one decode at the root.
            let pool = ShardedBufferPool::new(4096, 8);
            let packed = ParallelExecutor::new(4)
                .with_domain(EvalDomain::Compressed)
                .execute(&index, &queries, &pool, &CostModel::default());
            let dec_packed: usize = packed.results.iter().map(|r| r.decompressions).sum();
            let dec_raw: usize = raw.results.iter().map(|r| r.decompressions).sum();
            assert!(
                dec_packed < dec_raw,
                "{codec}: compressed {dec_packed} vs raw {dec_raw}"
            );
        }
    }

    #[test]
    fn batch_io_is_charged_to_store_totals() {
        let index = test_index(CodecKind::Raw);
        let before = index.store().stats();
        let pool = ShardedBufferPool::new(4096, 4);
        let batch =
            ParallelExecutor::new(4).execute(&index, &test_queries(), &pool, &CostModel::default());
        let after = index.store().stats().since(&before);
        assert_eq!(after, batch.io, "merged batch I/O lands in global stats");
        assert!(batch.io.pages_read > 0);
        assert!(batch.io_seconds > 0.0);
    }

    #[test]
    fn warm_striped_pool_turns_rereads_into_hits() {
        let index = test_index(CodecKind::Raw);
        let pool = ShardedBufferPool::new(4096, 4);
        let exec = ParallelExecutor::new(4);
        let queries = test_queries();
        let cold = exec.execute(&index, &queries, &pool, &CostModel::default());
        let warm = exec.execute(&index, &queries, &pool, &CostModel::default());
        assert_eq!(warm.total_scans(), cold.total_scans());
        assert!(warm.io.pages_read < cold.io.pages_read);
        assert!(warm.io.pool_hits > cold.io.pool_hits);
    }

    #[test]
    fn empty_batch_is_fine() {
        let index = test_index(CodecKind::Raw);
        let pool = ShardedBufferPool::new(64, 2);
        let batch = ParallelExecutor::new(4).execute(&index, &[], &pool, &CostModel::default());
        assert!(batch.results.is_empty());
        assert_eq!(batch.total_scans(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = ParallelExecutor::new(0);
    }

    #[test]
    fn expired_deadline_yields_typed_error() {
        let index = test_index(CodecKind::Raw);
        let pool = ShardedBufferPool::new(4096, 4);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let got = ParallelExecutor::new(4)
            .with_inner_threads(2)
            .execute_full_delta(
                &index,
                None,
                &test_queries(),
                &pool,
                &CostModel::default(),
                &Tracer::disabled(),
                None,
                Some(past),
            );
        assert_eq!(got.unwrap_err(), DeadlineExceeded);
    }

    #[test]
    fn generous_deadline_matches_undeadlined_run() {
        let index = test_index(CodecKind::Raw);
        let queries = test_queries();
        let pool = ShardedBufferPool::new(4096, 4);
        let plain =
            ParallelExecutor::new(4).execute(&index, &queries, &pool, &CostModel::default());
        let pool = ShardedBufferPool::new(4096, 4);
        let far = std::time::Instant::now() + std::time::Duration::from_secs(600);
        let timed = ParallelExecutor::new(4)
            .execute_full_delta(
                &index,
                None,
                &queries,
                &pool,
                &CostModel::default(),
                &Tracer::disabled(),
                None,
                Some(far),
            )
            .expect("generous deadline cannot expire");
        for (g, w) in timed.results.iter().zip(&plain.results) {
            assert_eq!(g.bitmap, w.bitmap);
            assert_eq!(g.scans, w.scans);
        }
    }

    #[test]
    fn node_mix_counters_cover_the_fold() {
        // Raw store: every folded node materialises as a raw bitvec.
        let index = test_index(CodecKind::Raw);
        let pool = ShardedBufferPool::new(4096, 4);
        let batch = ParallelExecutor::new(2).with_inner_threads(2).execute(
            &index,
            &test_queries(),
            &pool,
            &CostModel::default(),
        );
        for r in &batch.results {
            assert!(r.nodes_raw > 0);
            assert_eq!(r.nodes_compressed, 0);
        }
        // Compressed-domain BBC: leaves stay packed through the fold.
        let index = test_index(CodecKind::Bbc);
        let pool = ShardedBufferPool::new(4096, 4);
        let batch = ParallelExecutor::new(2)
            .with_domain(EvalDomain::Compressed)
            .execute(&index, &test_queries(), &pool, &CostModel::default());
        assert!(batch.results.iter().any(|r| r.nodes_compressed > 0));
    }
}
