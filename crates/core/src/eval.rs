//! Query evaluation strategies (§6.3).
//!
//! The rewrite phase produces a bitmap expression DAG; evaluating it is a
//! scheduling problem over a bounded buffer. The paper describes the two
//! extreme points, both implemented here:
//!
//! * **Component-wise** — all constituent interval queries are merged and
//!   their bitmaps fetched one component at a time, each distinct bitmap
//!   scanned exactly once (given sufficient buffer). This is the strategy
//!   used throughout the paper's performance study.
//! * **Query-wise** — constituents are evaluated one at a time, keeping a
//!   single intermediate result. Minimal buffer requirement, but bitmaps
//!   shared between constituents may be re-read if evicted.

use crate::parallel::fold_dag;
use crate::{BitmapRef, Expr};
use bix_bitvec::Bitvec;
use bix_compress::{BitOp, CodecKind, CompressedBitmap};
use bix_storage::{BitmapHandle, BitmapStore, BufferPool, CostModel, IoStats, ReadContext};
use bix_telemetry::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Which evaluation strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalStrategy {
    /// Fetch each distinct bitmap once, ordered by component (§6.3),
    /// then fold the hash-consed expression DAG over the fetched leaves
    /// with the one DAG fold [`crate::ParallelExecutor`] also runs, here
    /// at a single worker.
    #[default]
    ComponentWise,
    /// Evaluate one constituent at a time with one intermediate result.
    QueryWise,
    /// Query-wise with a greedy schedule: constituents are reordered so
    /// that each next constituent shares as many bitmaps as possible with
    /// the ones just evaluated, maximizing buffer-pool reuse under tight
    /// memory. This is the scheduling problem §6.3 leaves as future work,
    /// solved with a nearest-neighbour heuristic.
    QueryWiseScheduled,
    /// The paper's component-wise evaluation *as described*: process one
    /// component at a time, combining each component's bitmaps into the
    /// per-constituent intermediate results and freeing them before the
    /// next component — so working memory stays bounded by the §6.3
    /// formula (`n1 + 2·n2` intermediates plus one component's bitmaps)
    /// instead of prefetching every distinct bitmap like
    /// [`EvalStrategy::ComponentWise`]. It walks the same hash-consed DAG
    /// as the shared fold but keeps its own phase-ordered loop over
    /// decoded bitmaps: the memory bound needs each leaf loaded only
    /// during its component's phase, which the shared fold's
    /// prefetch-then-fold order does not give. [`EvalResult::peak_resident`]
    /// reports the measured footprint.
    ComponentStreaming,
}

/// Which representation the §6.3 DAG fold works over.
///
/// The classic evaluator decompresses every bitmap as it is read and does
/// word-wise bitwise work. Codecs closed under the bitwise operations
/// (BBC, WAH, EWAH) also support folding the *compressed streams*
/// directly — aligned fills combine in O(1) regardless of run length, and
/// only one decompression is paid, at the root. Which wins depends on
/// density: sparse, fill-heavy streams favour the compressed domain;
/// near-incompressible streams favour a single decode plus word loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalDomain {
    /// Per-node choice priced by the [`DomainCostModel`]: a leaf stays
    /// compressed when its codec's kernel is predicted cheaper over the
    /// stored stream than a decode plus word-wise work over the raw
    /// image; an intermediate result is decoded as soon as that stops
    /// holding. This is the default.
    #[default]
    Auto,
    /// Keep every supported codec's stream compressed through the whole
    /// fold; decompress once at the root.
    Compressed,
    /// Decompress every bitmap at read time and fold word-wise (the
    /// classic path).
    Raw,
}

impl EvalDomain {
    /// Parses the `--eval-domain` CLI spelling.
    pub fn parse(s: &str) -> Option<EvalDomain> {
        match s {
            "auto" => Some(EvalDomain::Auto),
            "compressed" => Some(EvalDomain::Compressed),
            "raw" => Some(EvalDomain::Raw),
            _ => None,
        }
    }

    /// The CLI spelling of this domain.
    pub fn name(self) -> &'static str {
        match self {
            EvalDomain::Auto => "auto",
            EvalDomain::Compressed => "compressed",
            EvalDomain::Raw => "raw",
        }
    }
}

/// Per-codec slopes of the [`DomainCostModel`], nanoseconds per byte.
///
/// Both slopes are measured on near-incompressible (literal-heavy)
/// inputs — the regime where the packed-vs-raw decision is close. Fill-
/// heavy streams have tiny stored sizes, so the linear rule prefers the
/// packed domain for them automatically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainCosts {
    /// Decoding cost for dense (literal-heavy) streams: nanoseconds per
    /// byte of the *decoded* image.
    pub decode_ns_per_raw_byte: f64,
    /// Decoding cost for sparse (run-heavy) streams, same denomination.
    /// Decode speed is strongly density-dependent and the codecs
    /// disagree on the sign: WAH and Roaring decode sparse streams
    /// several times *faster* than dense ones (fills memset, arrays set
    /// scattered bits), while BBC and EWAH decode them *slower* (per-run
    /// header overhead dominates when every run is short).
    pub decode_sparse_ns_per_raw_byte: f64,
    /// Compressed-kernel cost: nanoseconds per *stored* byte folded.
    pub kernel_ns_per_stored_byte: f64,
}

impl DomainCosts {
    /// The decode slope for a stream of `stored` bytes decoding to `raw`
    /// bytes, picked by the stream's own compression ratio: below 50%
    /// the stream is run-dominated and the sparse slope applies.
    pub fn decode_slope(&self, stored: usize, raw: usize) -> f64 {
        if stored * 2 < raw {
            self.decode_sparse_ns_per_raw_byte
        } else {
            self.decode_ns_per_raw_byte
        }
    }
}

/// Expected number of future fold ops a decoded value serves.
///
/// The packed-vs-raw choice is made greedily per DAG node, but a decode
/// is a one-time cost while every op after it runs at
/// `word_ns_per_byte`. [`DomainCostModel::prefer_packed`] therefore
/// amortizes the decode over this many ops — a typical §6 expression
/// fold is several levels deep, so charging the full decode against one
/// op systematically overprices demotion.
pub const DECODE_REUSE: f64 = 3.0;

/// A measured cost model deciding, per DAG node, whether a value is
/// cheaper to keep as a compressed stream or as a decoded bitmap.
///
/// The rule compares the marginal cost of the next operation on the value
/// in each domain. Folding a packed value costs about
/// `kernel_ns_per_stored_byte × stored` per op; going raw costs a decode
/// (the density-matched [`DomainCosts::decode_slope`] × raw, amortized
/// over `DECODE_REUSE` future ops), plus `word_ns_per_byte × raw` for
/// the word-wise op, plus — the term that makes the choice honest — a
/// full decode of the packed operand the next op would otherwise have
/// kernel-folded: once a value is raw, every combine must decode each
/// compressed operand it meets. The value stays packed when
///
/// ```text
/// kernel_ns × stored  ≤  (decode_ns / DECODE_REUSE + word_ns) × raw
///                         + operand_decode_ns × operand_raw
/// ```
///
/// The same inequality governs leaf admission (`reads_compressed`,
/// operand priced self-like) and intermediate-result demotion
/// (after every compressed-domain op, operand priced from the op actually
/// performed), replacing the two ad-hoc size-ratio thresholds that
/// previously disagreed with each other — and that demoted every dense
/// stream even when its kernel was cheaper than a decode. The operand
/// term is what lets EWAH hold a dense accumulator packed through a long
/// OR over compressed leaves (its kernel is cheaper per byte than its
/// own decode) while WAH and Roaring, whose sparse decodes are nearly
/// free, correctly let the same accumulator demote.
///
/// [`DomainCostModel::DEFAULT`] holds constants measured with
/// [`DomainCostModel::calibrate`] on the development container;
/// `calibrate()` re-measures on the current machine in a few
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainCostModel {
    /// BBC slopes.
    pub bbc: DomainCosts,
    /// WAH slopes.
    pub wah: DomainCosts,
    /// EWAH slopes.
    pub ewah: DomainCosts,
    /// Roaring slopes.
    pub roaring: DomainCosts,
    /// Word-wise fold cost: nanoseconds per byte of a decoded bitmap.
    pub word_ns_per_byte: f64,
}

impl Default for DomainCostModel {
    fn default() -> Self {
        DomainCostModel::DEFAULT
    }
}

impl DomainCostModel {
    /// Constants measured by [`DomainCostModel::calibrate`] on the
    /// reference container (single-core x86-64, release build).
    pub const DEFAULT: DomainCostModel = DomainCostModel {
        bbc: DomainCosts {
            decode_ns_per_raw_byte: 1.31,
            decode_sparse_ns_per_raw_byte: 3.05,
            kernel_ns_per_stored_byte: 34.5,
        },
        wah: DomainCosts {
            decode_ns_per_raw_byte: 1.39,
            decode_sparse_ns_per_raw_byte: 1.79,
            kernel_ns_per_stored_byte: 4.75,
        },
        ewah: DomainCosts {
            decode_ns_per_raw_byte: 1.21,
            decode_sparse_ns_per_raw_byte: 1.28,
            kernel_ns_per_stored_byte: 0.80,
        },
        roaring: DomainCosts {
            decode_ns_per_raw_byte: 3.36,
            decode_sparse_ns_per_raw_byte: 0.31,
            kernel_ns_per_stored_byte: 7.42,
        },
        word_ns_per_byte: 0.030,
    };

    /// The slopes for `codec`, or `None` when the codec has no
    /// compressed-domain kernels (only [`CodecKind::Raw`] today).
    pub fn costs(&self, codec: CodecKind) -> Option<DomainCosts> {
        match codec {
            CodecKind::Bbc => Some(self.bbc),
            CodecKind::Wah => Some(self.wah),
            CodecKind::Ewah => Some(self.ewah),
            CodecKind::Roaring => Some(self.roaring),
            CodecKind::Raw => None,
        }
    }

    /// Predicted nanoseconds for one compressed-domain op over a value of
    /// `codec` with `stored` stream bytes. Infinite when the codec has no
    /// kernels, so [`DomainCostModel::prefer_packed`] never picks it.
    pub fn packed_op_ns(&self, codec: CodecKind, stored: usize) -> f64 {
        self.costs(codec).map_or(f64::INFINITY, |c| {
            c.kernel_ns_per_stored_byte * stored as f64
        })
    }

    /// Predicted nanoseconds to decode a value of `codec` with `stored`
    /// stream bytes and `raw` decoded-image bytes, then fold one
    /// word-wise op over it.
    pub fn raw_op_ns(&self, codec: CodecKind, stored: usize, raw: usize) -> f64 {
        let decode = self
            .costs(codec)
            .map_or(0.0, |c| c.decode_slope(stored, raw));
        (decode + self.word_ns_per_byte) * raw as f64
    }

    /// Whether a value of `codec` with `stored` stream bytes and `raw`
    /// decoded bytes is cheaper kept packed — the *admission* rule for
    /// [`EvalDomain::Auto`], applied when a leaf is fetched.
    ///
    /// Unlike [`DomainCostModel::raw_op_ns`] (the true one-op price used
    /// for prediction), the value's own decode is divided by
    /// `DECODE_REUSE`: demoting once makes every later op on the value
    /// word-cheap, and charging the whole decode against a single op
    /// would pin dense streams packed through folds deep enough to repay
    /// the decode many times over. The demote side also carries a full
    /// *sibling* decode: a raw value forces every packed operand it later
    /// combines with through a decode, a per-op cost a
    /// packed kernel would have avoided entirely. At admission time the
    /// sibling is unknown, so it is priced self-like (same codec, same
    /// density regime) — the other leaves of the same query.
    pub fn prefer_packed(&self, codec: CodecKind, stored: usize, raw: usize) -> bool {
        self.keep_packed(codec, stored, raw, Some((stored, raw)))
    }

    /// The *demotion* rule for [`EvalDomain::Auto`], applied to the
    /// result of every compressed-domain op (binary combine or
    /// complement). Same inequality as
    /// [`DomainCostModel::prefer_packed`], but the forced-decode term
    /// prices the op's *actual* operand (`None` when the operand arrived
    /// raw, so demotion forces no decode and gets cheaper).
    pub fn keep_packed(
        &self,
        codec: CodecKind,
        stored: usize,
        raw: usize,
        operand: Option<(usize, usize)>,
    ) -> bool {
        let Some(c) = self.costs(codec) else {
            return false;
        };
        let packed = c.kernel_ns_per_stored_byte * stored as f64;
        let mut demote =
            (c.decode_slope(stored, raw) / DECODE_REUSE + self.word_ns_per_byte) * raw as f64;
        if let Some((op_stored, op_raw)) = operand {
            demote += c.decode_slope(op_stored, op_raw) * op_raw as f64;
        }
        packed <= demote
    }

    /// Measures the model's slopes on the current machine.
    ///
    /// Times each codec's decode and binary kernel, and the word-wise
    /// fold, over a pseudo-random half-dense megabit bitmap (the literal-
    /// heavy regime where the packed-vs-raw decision is close) and takes
    /// the minimum of several repetitions. The kernel slope is also
    /// measured on a sparse pair (XOR over scattered single bits — the
    /// regime that exercises per-run and per-element merge paths rather
    /// than bulk word loops) and the worse of the two slopes wins: a
    /// model that underprices the slow path keeps values packed exactly
    /// where the kernel loses. Decode is measured in both regimes and
    /// kept as *separate* slopes ([`DomainCosts::decode_slope`] picks by
    /// the stream's own ratio) because the codecs disagree on which
    /// regime decodes faster. Costs a few milliseconds; callers that
    /// care (the `eval_domain` bench) run it once and reuse the result
    /// via [`crate::BitmapIndex::set_domain_cost_model`].
    pub fn calibrate() -> DomainCostModel {
        use bix_compress::{Bbc, BitmapCodec, Ewah, Roaring, Wah};
        const BITS: usize = 1 << 20;
        let raw_bytes = (BITS / 8) as f64;

        // xorshift64*: deterministic, dependency-free irregular fill.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut a = Bitvec::zeros(BITS);
        let mut b = Bitvec::zeros(BITS);
        for w in 0..BITS / 64 {
            a.set_bits(w * 64, 64, next());
            b.set_bits(w * 64, 64, next());
        }
        // Scattered single bits, mean gap ~42: Roaring stays in array
        // containers, WAH/EWAH alternate fills and lone literals.
        let mut sparse = |salt: u64| {
            let mut bv = Bitvec::zeros(BITS);
            let mut pos = (salt % 13) as usize;
            while pos < BITS {
                bv.set(pos, true);
                pos += (next() % 67) as usize + 9;
            }
            bv
        };
        let (sa, sb) = (sparse(1), sparse(2));

        // Minimum over reps: the least noise-sensitive location statistic
        // for a throughput slope (outliers are always slowdowns).
        fn min_ns(mut f: impl FnMut()) -> f64 {
            f(); // warm-up
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t = Instant::now();
                f();
                best = best.min(t.elapsed().as_nanos() as f64);
            }
            best
        }

        let word_ns_per_byte = {
            let mut acc = a.clone();
            min_ns(|| {
                acc.and_assign(&b);
                std::hint::black_box(&acc);
            }) / raw_bytes
        };

        let measure = |codec: &dyn BitmapCodec| -> DomainCosts {
            let ca = CompressedBitmap::from_parts(codec.kind(), BITS, codec.compress(&a));
            let cb = CompressedBitmap::from_parts(codec.kind(), BITS, codec.compress(&b));
            let decode_ns_per_raw_byte = min_ns(|| {
                std::hint::black_box(ca.try_decode().expect("calibration stream"));
            }) / raw_bytes;
            let dense_slope = min_ns(|| {
                std::hint::black_box(ca.binary_op(&cb, BitOp::And).expect("kernel"));
            }) / ca.stored_size().max(cb.stored_size()).max(1) as f64;
            let csa = CompressedBitmap::from_parts(codec.kind(), BITS, codec.compress(&sa));
            let csb = CompressedBitmap::from_parts(codec.kind(), BITS, codec.compress(&sb));
            let decode_sparse_ns_per_raw_byte = min_ns(|| {
                std::hint::black_box(csa.try_decode().expect("calibration stream"));
            }) / raw_bytes;
            let sparse_slope = min_ns(|| {
                std::hint::black_box(csa.binary_op(&csb, BitOp::Xor).expect("kernel"));
            }) / csa.stored_size().max(csb.stored_size()).max(1) as f64;
            DomainCosts {
                decode_ns_per_raw_byte,
                decode_sparse_ns_per_raw_byte,
                kernel_ns_per_stored_byte: dense_slope.max(sparse_slope),
            }
        };

        DomainCostModel {
            bbc: measure(&Bbc),
            wah: measure(&Wah),
            ewah: measure(&Ewah),
            roaring: measure(&Roaring),
            word_ns_per_byte,
        }
    }
}

/// Decides whether a leaf bitmap is read as a compressed stream
/// ([`BitmapStore::read_compressed`]) or decoded at read time.
pub(crate) fn reads_compressed(
    domain: EvalDomain,
    handle: BitmapHandle,
    stored: usize,
    model: &DomainCostModel,
) -> bool {
    if !handle.codec().supports_compressed_ops() {
        return false;
    }
    match domain {
        EvalDomain::Raw => false,
        EvalDomain::Compressed => true,
        EvalDomain::Auto => {
            model.prefer_packed(handle.codec(), stored, handle.len_bits().div_ceil(8))
        }
    }
}

/// One value flowing through the evaluation DAG: either a decoded bitmap
/// or a still-compressed stream (validated at read time, so kernel ops
/// and the final decode cannot fail).
#[derive(Debug, Clone)]
pub(crate) enum NodeVal {
    /// A decoded bitmap; ops on it are word-wise.
    Raw(Bitvec),
    /// A compressed stream; ops on it run in the compressed domain. The
    /// cell lazily caches the decoded image: hash-consed DAG nodes are
    /// consumed by several parents, and without the cache every
    /// mixed-domain consumer would decode (and count) the same stream
    /// again — letting `auto` exceed the raw domain's decompression
    /// count on queries with shared subexpressions. Clones share the
    /// cell, so a value decodes at most once however often it is read.
    Packed(CompressedBitmap, DecodedCell),
}

/// Shared lazy decode slot for [`NodeVal::Packed`]; `Arc` because the
/// parallel executor's fold reads node values from several threads.
pub(crate) type DecodedCell = std::sync::Arc<std::sync::OnceLock<Bitvec>>;

/// Decodes through the cache, counting the decompression only when this
/// call actually performed it (`get_or_init` runs the closure exactly
/// once per cell, so the count stays deterministic under the parallel
/// executor too).
fn decode_cached<'a>(
    c: &CompressedBitmap,
    cell: &'a DecodedCell,
    decompressions: &mut usize,
) -> &'a Bitvec {
    let mut fresh = false;
    let bv = cell.get_or_init(|| {
        fresh = true;
        c.try_decode().expect("stream validated at read time")
    });
    if fresh {
        *decompressions += 1;
    }
    bv
}

fn apply_assign(acc: &mut Bitvec, op: BitOp, rhs: &Bitvec) {
    match op {
        BitOp::And => acc.and_assign(rhs),
        BitOp::Or => acc.or_assign(rhs),
        BitOp::Xor => acc.xor_assign(rhs),
        BitOp::AndNot => *acc = acc.and_not(rhs),
    }
}

impl NodeVal {
    /// Telemetry label for the representation this value ended up in.
    pub(crate) fn domain_name(&self) -> &'static str {
        match self {
            NodeVal::Raw(_) => "raw",
            NodeVal::Packed(..) => "compressed",
        }
    }

    /// Wraps a freshly produced compressed stream with an empty decode
    /// cache.
    pub(crate) fn packed(c: CompressedBitmap) -> NodeVal {
        NodeVal::Packed(c, DecodedCell::default())
    }

    /// Decodes (through the shared cache, counting only a fresh
    /// decompression) or clones out a raw bitmap.
    pub(crate) fn to_raw(&self, decompressions: &mut usize) -> Bitvec {
        match self {
            NodeVal::Raw(bv) => bv.clone(),
            NodeVal::Packed(c, cell) => decode_cached(c, cell, decompressions).clone(),
        }
    }

    /// Consumes the value into a raw bitmap, counting any decompression.
    pub(crate) fn into_raw(self, decompressions: &mut usize) -> Bitvec {
        match self {
            NodeVal::Raw(bv) => bv,
            NodeVal::Packed(c, cell) => {
                decode_cached(&c, &cell, decompressions);
                match std::sync::Arc::try_unwrap(cell) {
                    Ok(once) => once.into_inner().expect("cell just initialized"),
                    Err(shared) => shared.get().expect("cell just initialized").clone(),
                }
            }
        }
    }

    /// Demotes a packed result to raw when the cost model says the ops
    /// above it are cheaper word-wise — the per-node adaptive choice
    /// under [`EvalDomain::Auto`]. `operand` carries the stored/raw
    /// sizes of the packed operand the producing op consumed (if any):
    /// demoting a value that keeps meeting compressed operands forces a
    /// decode per op, so the model charges for it.
    fn settle(
        c: CompressedBitmap,
        domain: EvalDomain,
        model: &DomainCostModel,
        operand: Option<(usize, usize)>,
        decompressions: &mut usize,
    ) -> NodeVal {
        if domain == EvalDomain::Auto
            && !model.keep_packed(c.kind(), c.stored_size(), c.raw_size(), operand)
        {
            *decompressions += 1;
            return NodeVal::Raw(c.try_decode().expect("stream validated at read time"));
        }
        NodeVal::packed(c)
    }

    /// Complements the value, staying compressed when possible. A
    /// complement can change the stored size dramatically (a sparse
    /// Roaring array becomes near-full bitmap containers), so the result
    /// goes through the same [`DomainCostModel`] demotion check as
    /// [`NodeVal::combine`].
    pub(crate) fn not(
        &self,
        domain: EvalDomain,
        model: &DomainCostModel,
        decompressions: &mut usize,
    ) -> NodeVal {
        if let NodeVal::Packed(c, _) = self {
            if let Some(neg) = c.not_op() {
                // The complemented stream is the proxy for the operands
                // the result will meet (same codec, same density regime):
                // demoting here would force them through a decode apiece.
                let operand = Some((c.stored_size(), c.raw_size()));
                return NodeVal::settle(neg, domain, model, operand, decompressions);
            }
        }
        NodeVal::Raw(self.to_raw(decompressions).not())
    }

    /// Combines two values under `op`. Two compressed streams combine in
    /// the compressed domain; mixed or unsupported pairs decode and fold
    /// word-wise. Under [`EvalDomain::Auto`] a compressed result whose
    /// future ops the [`DomainCostModel`] prices higher than a decode
    /// plus word loops is decoded eagerly — the per-node adaptive choice.
    pub(crate) fn combine(
        self,
        other: &NodeVal,
        op: BitOp,
        domain: EvalDomain,
        model: &DomainCostModel,
        decompressions: &mut usize,
    ) -> NodeVal {
        if let (NodeVal::Packed(a, _), NodeVal::Packed(b, _)) = (&self, other) {
            if let Some(c) = a.binary_op(b, op) {
                let operand = Some((b.stored_size(), b.raw_size()));
                return NodeVal::settle(c, domain, model, operand, decompressions);
            }
        }
        let mut acc = self.into_raw(decompressions);
        match other {
            NodeVal::Raw(bv) => apply_assign(&mut acc, op, bv),
            NodeVal::Packed(c, cell) => {
                apply_assign(&mut acc, op, decode_cached(c, cell, decompressions));
            }
        }
        NodeVal::Raw(acc)
    }
}

/// Greedy nearest-neighbour ordering: start from the constituent with the
/// most leaves shared with any other, then repeatedly append the
/// unvisited constituent sharing the most leaves with the previous one.
fn schedule(constituents: &[Expr]) -> Vec<usize> {
    let leaves: Vec<std::collections::BTreeSet<BitmapRef>> =
        constituents.iter().map(Expr::leaves).collect();
    let overlap = |a: usize, b: usize| leaves[a].intersection(&leaves[b]).count();

    let n = constituents.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut visited = vec![false; n];
    // Seed: the pair with maximum overlap (ties fall back to input order).
    // `max_by_key` keeps the *last* maximal element, so pair it with
    // `Reverse(index)` to make ties resolve to the earliest constituent.
    let mut current = (0..n)
        .max_by_key(|&i| {
            let best = (0..n).filter(|&j| j != i).map(|j| overlap(i, j)).max();
            (best, std::cmp::Reverse(i))
        })
        .unwrap_or(0);
    let mut order = Vec::with_capacity(n);
    loop {
        visited[current] = true;
        order.push(current);
        match (0..n)
            .filter(|&j| !visited[j])
            .max_by_key(|&j| (overlap(current, j), std::cmp::Reverse(j)))
        {
            Some(next) => current = next,
            None => break,
        }
    }
    order
}

/// The outcome of one query evaluation, with the paper's cost metrics.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The matching records.
    pub bitmap: Bitvec,
    /// Bitmap reads issued against the store (rescans included).
    pub scans: usize,
    /// Distinct bitmaps referenced by the expression.
    pub distinct_bitmaps: usize,
    /// Disk activity attributable to this evaluation.
    pub io: IoStats,
    /// Simulated disk time (cost model over `io`), seconds.
    pub io_seconds: f64,
    /// Measured CPU time (bitwise ops + decompression), seconds.
    pub cpu_seconds: f64,
    /// Compressed streams decoded to raw bitmaps during this evaluation
    /// (reads of [`bix_compress::CodecKind::Raw`] bitmaps are not
    /// decompressions). Compressed-domain folding drives this toward one
    /// decode — at the root — per query.
    pub decompressions: usize,
    /// Peak number of bitmaps resident in working memory at once
    /// (loaded leaves plus live intermediate results). Meaningfully small
    /// only for [`EvalStrategy::ComponentStreaming`]; the cache-everything
    /// strategies report their full cache size.
    pub peak_resident: usize,
    /// DAG-fold nodes whose value ended up as a decoded (raw) bitmap.
    /// Tracked by the [`EvalStrategy::ComponentWise`] fold and the
    /// parallel executor; the non-DAG strategies report zero. Together
    /// with [`EvalResult::nodes_compressed`] this is the operator-level
    /// compressed-vs-raw evaluation mix.
    pub nodes_raw: usize,
    /// DAG-fold nodes whose value stayed a compressed stream.
    pub nodes_compressed: usize,
    /// In-memory delta tails folded for this query (`main ∪ delta`
    /// evaluation); zero when the query ran against the main index alone.
    /// Delta reads never touch the store, so they are counted apart from
    /// [`EvalResult::scans`].
    pub delta_scans: usize,
    /// Rows of [`EvalResult::bitmap`] contributed by the delta tail
    /// (always the trailing rows).
    pub delta_rows: usize,
}

impl EvalResult {
    /// Simulated total processing time: disk + CPU, the paper's
    /// time-efficiency metric.
    pub fn total_seconds(&self) -> f64 {
        self.io_seconds + self.cpu_seconds
    }
}

/// Evaluates constituent expressions against stored bitmaps: the
/// sequential evaluator behind [`crate::BitmapIndex::evaluate_detailed_with_domain`].
///
/// `handles` maps a [`BitmapRef`] to its stored bitmap; `rows` is the
/// relation cardinality. Constituents are OR-ed together (a membership
/// query is a disjunction of its interval constituents). `domain` and
/// `model` steer the [`EvalStrategy::ComponentWise`] DAG fold; the
/// query-wise and streaming strategies always fold raw bitmaps (their
/// per-constituent structure re-reads shared bitmaps, so stream-level
/// ops buy nothing). Opens an `eval` span under `parent` with `fetch` /
/// `fold` / `stream` / `constituent` children and per-bitmap `read`
/// spans; a disabled tracer records nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate(
    constituents: &[Expr],
    rows: usize,
    handles: &dyn Fn(BitmapRef) -> BitmapHandle,
    store: &mut BitmapStore,
    pool: &mut BufferPool,
    strategy: EvalStrategy,
    domain: EvalDomain,
    model: &DomainCostModel,
    cost: &CostModel,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> EvalResult {
    let before_io = store.stats();
    let started = Instant::now();
    let eval_span = tracer.span("eval", parent);
    let eval_id = eval_span.id();

    let merged = Expr::or(constituents.iter().cloned());
    let distinct = merged.scan_count();
    let mut scans = 0usize;
    let mut peak_resident = 0usize;
    let mut decompressions = 0usize;
    let mut node_mix = (0usize, 0usize);

    let bitmap = match strategy {
        EvalStrategy::ComponentStreaming => {
            let stream = tracer.span("stream", eval_id);
            let (result, peak, n_scans, n_dec) =
                evaluate_streaming(&merged, rows, handles, store, pool);
            scans = n_scans;
            peak_resident = peak;
            decompressions = n_dec;
            stream.attr("scans", n_scans);
            stream.attr("peak_resident", peak);
            result
        }
        EvalStrategy::ComponentWise => {
            // Fetch every distinct bitmap once, in component order —
            // compressed streams stay compressed when the domain says so —
            // then fold the hash-consed DAG from the cache.
            let fetch_span = tracer.span("fetch", eval_id);
            let fetch_id = fetch_span.id();
            let mut cache: BTreeMap<BitmapRef, NodeVal> = BTreeMap::new();
            for r in merged.leaves() {
                let handle = handles(r);
                let read_span = if tracer.is_enabled() {
                    let before = store.stats();
                    Some((
                        tracer.span(&format!("read c{}:{}", r.component, r.slot), fetch_id),
                        before,
                    ))
                } else {
                    None
                };
                let val = if reads_compressed(domain, handle, store.stored_size(handle), model) {
                    let c = store.read_compressed(handle, pool).unwrap_or_else(|e| {
                        panic!("corrupt bitmap on an unguarded read path: {e}")
                    });
                    NodeVal::packed(c)
                } else {
                    decompressions += usize::from(handle.codec() != CodecKind::Raw);
                    NodeVal::Raw(store.read(handle, pool))
                };
                if let Some((span, before)) = read_span {
                    let d = store.stats().since(&before);
                    span.attr("pages", d.pages_read);
                    span.attr("pool_hits", d.pool_hits);
                    span.attr("bytes", d.bytes_read);
                    span.attr("domain", val.domain_name());
                }
                scans += 1;
                cache.insert(r, val);
            }
            fetch_span.attr("scans", scans);
            fetch_span.finish();
            peak_resident = cache.len() + 1;
            let fold_span = tracer.span("fold", eval_id);
            let cache = Mutex::new(cache);
            let leaf = |r: BitmapRef, _: &mut ReadContext, _: &mut usize| {
                let mut cache = cache.lock().expect("leaf cache");
                cache.remove(&r).expect("leaf fetched")
            };
            let fold = fold_dag(
                &Dag::build(&merged),
                rows,
                &leaf,
                1,
                domain,
                model,
                tracer,
                fold_span.id(),
                None,
            );
            fold_span.finish();
            decompressions += fold.decompressions;
            node_mix = (fold.nodes_raw, fold.nodes_compressed);
            fold.bitmap
        }
        EvalStrategy::QueryWise | EvalStrategy::QueryWiseScheduled => {
            // One constituent at a time; each constituent re-fetches its
            // own leaves (the pool may or may not still hold them).
            let order: Vec<usize> = match strategy {
                EvalStrategy::QueryWiseScheduled => schedule(constituents),
                _ => (0..constituents.len()).collect(),
            };
            let mut acc = Bitvec::zeros(rows);
            let mut any = false;
            for &ci in &order {
                let expr = &constituents[ci];
                let c_span = if tracer.is_enabled() {
                    Some(tracer.span(&format!("constituent {ci}"), eval_id))
                } else {
                    None
                };
                let before_scans = scans;
                let mut fetch = |r: BitmapRef| {
                    scans += 1;
                    let handle = handles(r);
                    decompressions += usize::from(handle.codec() != CodecKind::Raw);
                    store.read(handle, pool)
                };
                let result = expr.evaluate(rows, &mut fetch);
                if let Some(span) = c_span {
                    span.attr("scans", scans - before_scans);
                }
                if any {
                    acc.or_assign(&result);
                } else {
                    acc = result;
                    any = true;
                }
            }
            if constituents.is_empty() {
                Bitvec::zeros(rows)
            } else {
                acc
            }
        }
    };

    let cpu_seconds = cost.cpu_seconds(started.elapsed().as_secs_f64());
    let io = store.stats().since(&before_io);
    eval_span.attr("scans", scans);
    eval_span.attr("distinct", distinct);
    eval_span.attr("pages", io.pages_read);
    eval_span.attr("decompressions", decompressions);
    EvalResult {
        bitmap,
        scans,
        distinct_bitmaps: distinct,
        io,
        io_seconds: cost.io_seconds(&io),
        cpu_seconds,
        decompressions,
        peak_resident,
        nodes_raw: node_mix.0,
        nodes_compressed: node_mix.1,
        delta_scans: 0,
        delta_rows: 0,
    }
}

/// Model-predicted nanoseconds for one node op — the number `bix
/// explain` puts next to each node's measured time. `rhs` is `None` for
/// a complement, priced as one pass over the operand in its own domain.
/// Same-codec packed pairs are priced as one kernel pass over the larger
/// stream; anything else decodes its packed operands and folds word-wise.
pub(crate) fn predict_ns(lhs: &NodeVal, rhs: Option<&NodeVal>, model: &DomainCostModel) -> f64 {
    let Some(rhs) = rhs else {
        return match lhs {
            NodeVal::Packed(p, _) => model.packed_op_ns(p.kind(), p.stored_size()),
            NodeVal::Raw(bv) => model.word_ns_per_byte * bv.byte_size() as f64,
        };
    };
    match (lhs, rhs) {
        (NodeVal::Packed(a, _), NodeVal::Packed(b, _)) if a.kind() == b.kind() => {
            model.packed_op_ns(a.kind(), a.stored_size().max(b.stored_size()))
        }
        _ => {
            let decode = |v: &NodeVal| match v {
                NodeVal::Packed(c, _) => model.costs(c.kind()).map_or(0.0, |s| {
                    s.decode_slope(c.stored_size(), c.raw_size()) * c.raw_size() as f64
                }),
                NodeVal::Raw(_) => 0.0,
            };
            let raw_bytes = match lhs {
                NodeVal::Raw(bv) => bv.byte_size(),
                NodeVal::Packed(c, _) => c.raw_size(),
            };
            decode(lhs) + decode(rhs) + model.word_ns_per_byte * raw_bytes as f64
        }
    }
}

/// One operation of the hash-consed expression DAG (children are node
/// indexes, always smaller than the node's own index).
#[derive(Clone)]
pub(crate) enum NodeOp {
    /// All-ones (`true`) or all-zeros (`false`).
    Const(bool),
    /// A stored bitmap.
    Leaf(BitmapRef),
    /// Complement of one node.
    Not(usize),
    /// Conjunction of two or more nodes.
    And(Vec<usize>),
    /// Disjunction of two or more nodes.
    Or(Vec<usize>),
    /// Symmetric difference of two nodes.
    Xor(usize, usize),
}

impl NodeOp {
    /// Child node indexes of this operation.
    pub(crate) fn children(&self) -> Vec<usize> {
        match self {
            NodeOp::Const(_) | NodeOp::Leaf(_) => Vec::new(),
            NodeOp::Not(c) => vec![*c],
            NodeOp::And(cs) | NodeOp::Or(cs) => cs.clone(),
            NodeOp::Xor(a, b) => vec![*a, *b],
        }
    }
}

/// The hash-consed form of a merged query expression, shared by the
/// streaming evaluator below and the one DAG fold
/// (`crate::parallel::fold_dag`). Nodes are unique (identical subexpressions intern
/// to one node, so each distinct bitmap has exactly one `Leaf`) and stored
/// in topological postorder: every child index precedes its parents.
pub(crate) struct Dag {
    /// The operations, child-before-parent.
    pub(crate) ops: Vec<NodeOp>,
    /// Component phase of each node (0 = constants; leaves run in phase
    /// `component + 1`; interior nodes in their deepest child's phase).
    pub(crate) phase_of: Vec<usize>,
    /// Consumer counts per node, including one final consumer on `root` —
    /// a value may be freed when its count drains to zero.
    pub(crate) refs: Vec<usize>,
    /// Index of the root node.
    pub(crate) root: usize,
}

impl Dag {
    /// Hash-conses `merged` into unique nodes in topological order.
    pub(crate) fn build(merged: &Expr) -> Dag {
        use std::collections::HashMap;

        let mut index_of: HashMap<&Expr, usize> = HashMap::new();
        let mut ops: Vec<NodeOp> = Vec::new();
        let mut phase_of: Vec<usize> = Vec::new();

        fn intern<'e>(
            e: &'e Expr,
            index_of: &mut std::collections::HashMap<&'e Expr, usize>,
            ops: &mut Vec<NodeOp>,
            phase_of: &mut Vec<usize>,
        ) -> usize {
            if let Some(&i) = index_of.get(e) {
                return i;
            }
            let (op, phase) = match e {
                Expr::True => (NodeOp::Const(true), 0),
                Expr::False => (NodeOp::Const(false), 0),
                Expr::Leaf(r) => (NodeOp::Leaf(*r), r.component + 1),
                Expr::Not(inner) => {
                    let c = intern(inner, index_of, ops, phase_of);
                    (NodeOp::Not(c), phase_of[c])
                }
                Expr::And(children) => {
                    let cs: Vec<usize> = children
                        .iter()
                        .map(|c| intern(c, index_of, ops, phase_of))
                        .collect();
                    let phase = cs.iter().map(|&c| phase_of[c]).max().unwrap_or(0);
                    (NodeOp::And(cs), phase)
                }
                Expr::Or(children) => {
                    let cs: Vec<usize> = children
                        .iter()
                        .map(|c| intern(c, index_of, ops, phase_of))
                        .collect();
                    let phase = cs.iter().map(|&c| phase_of[c]).max().unwrap_or(0);
                    (NodeOp::Or(cs), phase)
                }
                Expr::Xor(a, b) => {
                    let ca = intern(a, index_of, ops, phase_of);
                    let cb = intern(b, index_of, ops, phase_of);
                    (NodeOp::Xor(ca, cb), phase_of[ca].max(phase_of[cb]))
                }
            };
            ops.push(op);
            phase_of.push(phase);
            let i = ops.len() - 1;
            index_of.insert(e, i);
            i
        }
        let root = intern(merged, &mut index_of, &mut ops, &mut phase_of);

        // Reference counts (how many consumers each node has).
        let mut refs = vec![0usize; ops.len()];
        for op in &ops {
            for c in op.children() {
                refs[c] += 1;
            }
        }
        refs[root] += 1; // the final consumer

        Dag {
            ops,
            phase_of,
            refs,
            root,
        }
    }
}

/// The §6.3 streaming component-wise pass: a dataflow schedule over the
/// expression DAG. Unique subexpressions are computed in component phases
/// (a node runs in the phase of its highest-component leaf), leaf bitmaps
/// are loaded only during their component's phase, and every value —
/// leaf or intermediate — is freed as soon as its last consumer has run.
/// Returns `(result, peak_resident, scans, decompressions)`.
fn evaluate_streaming(
    merged: &Expr,
    rows: usize,
    handles: &dyn Fn(BitmapRef) -> BitmapHandle,
    store: &mut BitmapStore,
    pool: &mut BufferPool,
) -> (Bitvec, usize, usize, usize) {
    let Dag {
        ops,
        phase_of,
        mut refs,
        root,
    } = Dag::build(merged);

    // Phase-ordered execution. Nodes are already topologically ordered
    // within `ops` (postorder), so a stable sort by phase preserves
    // child-before-parent within each phase.
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| phase_of[i]);

    let mut results: Vec<Option<Bitvec>> = vec![None; ops.len()];
    let mut resident = 0usize;
    let mut peak = 0usize;
    let mut scans = 0usize;
    let mut decompressions = 0usize;

    for &i in &order {
        let value = match &ops[i] {
            NodeOp::Const(true) => Bitvec::ones_vec(rows),
            NodeOp::Const(false) => Bitvec::zeros(rows),
            NodeOp::Leaf(r) => {
                scans += 1;
                let handle = handles(*r);
                decompressions += usize::from(handle.codec() != CodecKind::Raw);
                store.read(handle, pool)
            }
            NodeOp::Not(c) => results[*c].as_ref().expect("child computed").not(),
            NodeOp::And(cs) => {
                let mut acc = results[cs[0]].as_ref().expect("child computed").clone();
                for &c in &cs[1..] {
                    acc.and_assign(results[c].as_ref().expect("child computed"));
                }
                acc
            }
            NodeOp::Or(cs) => {
                let mut acc = results[cs[0]].as_ref().expect("child computed").clone();
                for &c in &cs[1..] {
                    acc.or_assign(results[c].as_ref().expect("child computed"));
                }
                acc
            }
            NodeOp::Xor(a, b) => {
                let mut acc = results[*a].as_ref().expect("child computed").clone();
                acc.xor_assign(results[*b].as_ref().expect("child computed"));
                acc
            }
        };
        results[i] = Some(value);
        resident += 1;
        peak = peak.max(resident);
        // Release children whose last consumer just ran.
        for c in ops[i].children() {
            refs[c] -= 1;
            if refs[c] == 0 && results[c].is_some() {
                results[c] = None;
                resident -= 1;
            }
        }
    }

    let result = results[root].take().expect("root computed");
    (result, peak, scans, decompressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bix_compress::CodecKind;
    use bix_storage::DiskConfig;

    #[test]
    fn eval_domain_cost_model_calibrates_to_finite_slopes() {
        let m = DomainCostModel::calibrate();
        eprintln!("calibrated: {m:#?}");
        for c in [
            CodecKind::Bbc,
            CodecKind::Wah,
            CodecKind::Ewah,
            CodecKind::Roaring,
        ] {
            let s = m.costs(c).expect("kernel-capable codec has slopes");
            assert!(
                s.decode_ns_per_raw_byte > 0.0 && s.decode_ns_per_raw_byte.is_finite(),
                "{c:?} decode slope"
            );
            assert!(
                s.decode_sparse_ns_per_raw_byte > 0.0
                    && s.decode_sparse_ns_per_raw_byte.is_finite(),
                "{c:?} sparse decode slope"
            );
            assert!(
                s.kernel_ns_per_stored_byte > 0.0 && s.kernel_ns_per_stored_byte.is_finite(),
                "{c:?} kernel slope"
            );
        }
        assert!(m.word_ns_per_byte > 0.0 && m.word_ns_per_byte.is_finite());
        assert!(m.costs(CodecKind::Raw).is_none(), "raw never packs");
        // An empty stream is always worth keeping packed; a huge stream
        // over a tiny image never is.
        assert!(m.prefer_packed(CodecKind::Ewah, 0, 1 << 20));
        assert!(!m.prefer_packed(CodecKind::Ewah, 1 << 30, 8));
    }

    /// [`evaluate`] in the default domain, untraced.
    fn run(
        constituents: &[Expr],
        rows: usize,
        handles: &dyn Fn(BitmapRef) -> BitmapHandle,
        store: &mut BitmapStore,
        pool: &mut BufferPool,
        strategy: EvalStrategy,
        cost: &CostModel,
    ) -> EvalResult {
        evaluate(
            constituents,
            rows,
            handles,
            store,
            pool,
            strategy,
            EvalDomain::default(),
            &DomainCostModel::DEFAULT,
            cost,
            &Tracer::disabled(),
            None,
        )
    }

    /// A toy store with 4 bitmaps over 100 rows.
    fn setup() -> (BitmapStore, Vec<BitmapHandle>, Vec<Bitvec>) {
        let mut store = BitmapStore::new(DiskConfig { page_size: 64 });
        let rows = 100usize;
        let bitmaps: Vec<Bitvec> = (0..4)
            .map(|k| {
                let positions: Vec<usize> = (0..rows).filter(|i| i % (k + 2) == 0).collect();
                Bitvec::from_positions(rows, &positions)
            })
            .collect();
        let handles = bitmaps
            .iter()
            .enumerate()
            .map(|(k, bv)| store.put(&format!("b{k}"), CodecKind::Raw, bv))
            .collect();
        (store, handles, bitmaps)
    }

    #[test]
    fn component_wise_scans_each_distinct_bitmap_once() {
        let (mut store, handles, bitmaps) = setup();
        let mut pool = BufferPool::new(64);
        // Expression referencing bitmap 0 twice and bitmap 1 once.
        let e = Expr::or([
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 1)]),
            Expr::and([Expr::leaf(0, 0), Expr::not(Expr::leaf(0, 1))]),
        ]);
        let result = run(
            &[e],
            100,
            &|r| handles[r.slot],
            &mut store,
            &mut pool,
            EvalStrategy::ComponentWise,
            &CostModel::default(),
        );
        assert_eq!(result.scans, 2);
        assert_eq!(result.distinct_bitmaps, 2);
        // (b0 ∧ b1) ∨ (b0 ∧ ¬b1) = b0.
        assert_eq!(result.bitmap, bitmaps[0]);
        assert!(result.io_seconds > 0.0);
    }

    #[test]
    fn query_wise_rescans_shared_bitmaps() {
        let (mut store, handles, bitmaps) = setup();
        let mut pool = BufferPool::new(64);
        let constituents = vec![
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 1)]),
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 2)]),
        ];
        let result = run(
            &constituents,
            100,
            &|r| handles[r.slot],
            &mut store,
            &mut pool,
            EvalStrategy::QueryWise,
            &CostModel::default(),
        );
        // Bitmap 0 fetched by both constituents: 4 store reads, 3 distinct.
        assert_eq!(result.scans, 4);
        assert_eq!(result.distinct_bitmaps, 3);
        let expect = bitmaps[0].and(&bitmaps[1]).or(&bitmaps[0].and(&bitmaps[2]));
        assert_eq!(result.bitmap, expect);
    }

    #[test]
    fn schedule_groups_sharing_constituents() {
        // Constituents 0 and 2 share leaves; the schedule must make them
        // adjacent so the pool can serve the second from cache.
        let constituents = vec![
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 1)]),
            Expr::leaf(0, 7),
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 2)]),
        ];
        let order = schedule(&constituents);
        let pos = |i: usize| order.iter().position(|&x| x == i).expect("present");
        assert_eq!(pos(0).abs_diff(pos(2)), 1, "sharing pair split: {order:?}");
    }

    #[test]
    fn schedule_breaks_ties_in_input_order() {
        // All constituents are disjoint, so every overlap is 0 and every
        // choice is a tie. The documented fallback is input order; the old
        // `max_by_key` kept the *last* maximal element and started at the
        // back.
        let constituents: Vec<Expr> = (0..5).map(|s| Expr::leaf(0, s)).collect();
        assert_eq!(schedule(&constituents), vec![0, 1, 2, 3, 4]);

        // Two equally-good seeds (0∼1 and 2∼3 overlap pairwise): the seed
        // must be constituent 0, not the last maximal candidate.
        let paired = vec![
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 1)]),
            Expr::leaf(0, 0),
            Expr::and([Expr::leaf(0, 2), Expr::leaf(0, 3)]),
            Expr::leaf(0, 2),
        ];
        let order = schedule(&paired);
        assert_eq!(order[0], 0, "seed must be the first maximal constituent");
        assert_eq!(order[1], 1, "nearest neighbour ties break low-index first");
    }

    #[test]
    fn schedule_is_a_permutation() {
        let constituents: Vec<Expr> = (0..6).map(|s| Expr::leaf(0, s)).collect();
        let mut order = schedule(&constituents);
        order.sort_unstable();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
        assert!(schedule(&[]).is_empty());
        assert_eq!(schedule(&constituents[..1]), vec![0]);
    }

    #[test]
    fn strategies_agree_on_results() {
        let (mut store, handles, _) = setup();
        let constituents = vec![
            Expr::xor(Expr::leaf(0, 0), Expr::leaf(0, 3)),
            Expr::not(Expr::leaf(0, 2)),
        ];
        let mut results = Vec::new();
        for strategy in [
            EvalStrategy::ComponentWise,
            EvalStrategy::QueryWise,
            EvalStrategy::QueryWiseScheduled,
        ] {
            let mut pool = BufferPool::new(64);
            store.reset_stats();
            results.push(
                run(
                    &constituents,
                    100,
                    &|r| handles[r.slot],
                    &mut store,
                    &mut pool,
                    strategy,
                    &CostModel::default(),
                )
                .bitmap,
            );
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn empty_constituents_yield_empty_bitmap() {
        let (mut store, handles, _) = setup();
        for strategy in [EvalStrategy::ComponentWise, EvalStrategy::QueryWise] {
            let mut pool = BufferPool::new(8);
            let result = run(
                &[],
                100,
                &|r| handles[r.slot],
                &mut store,
                &mut pool,
                strategy,
                &CostModel::default(),
            );
            assert!(result.bitmap.is_all_zero());
            assert_eq!(result.scans, 0);
        }
    }

    #[test]
    fn warm_pool_reduces_io_but_not_scans() {
        let (mut store, handles, _) = setup();
        let mut pool = BufferPool::new(64);
        let e = vec![Expr::leaf(0, 0)];
        let cold = run(
            &e,
            100,
            &|r| handles[r.slot],
            &mut store,
            &mut pool,
            EvalStrategy::ComponentWise,
            &CostModel::default(),
        );
        let warm = run(
            &e,
            100,
            &|r| handles[r.slot],
            &mut store,
            &mut pool,
            EvalStrategy::ComponentWise,
            &CostModel::default(),
        );
        assert_eq!(cold.scans, warm.scans);
        assert!(warm.io.pages_read < cold.io.pages_read.max(1));
        assert!(warm.io_seconds < cold.io_seconds);
    }
}
