//! Router merge correctness: scatter-gather over row-range shards must
//! be bit-identical to a monolithic server over the concatenated
//! column, for random Zipf workloads and random shard boundaries —
//! including degenerate boundaries that leave some shards empty.
//!
//! The test is socket-free on purpose: each shard is a real
//! [`IndexHandler`] evaluated in-process (the same code path a live
//! shard server runs after frame decode), and the merge is the router's
//! own [`merge_replies`]. What is *not* under test here — transports,
//! retries, fault handling — has its own chaos suite.
//!
//! Replies are bitmap-backed row sets from shard to client, so the
//! second half checks them against the list-based reply they replace:
//! the merge is the offset concatenation of the row lists, and every
//! encoded frame is byte-identical to a frame built by the list-based
//! encoder, kept here as an oracle.

use bix_core::{BitmapIndex, Catalog, CostModel, EncodingScheme, EvalDomain, IndexConfig, Planner};
use bix_server::{
    decode_frame, encode_frame, merge_replies, CatalogHandler, Frame, IndexHandler, Message,
    Request, RequestMeta, Response, RowSet, RowsReply, ServeHandler, ServerConfig, ShardReply,
    MAGIC, VERSION,
};
use bix_workload::{DatasetSpec, QuerySetSpec};
use proptest::prelude::*;

/// Evaluates a batch through the real server-side handler.
fn evaluate(
    column: &[u64],
    cardinality: u64,
    scheme: EncodingScheme,
    batch: &[String],
) -> Vec<RowsReply> {
    let index = BitmapIndex::build(column, &IndexConfig::one_component(cardinality, scheme));
    let handler = IndexHandler::new(index, &ServerConfig::default());
    let response = handler.handle(
        Request::Batch {
            domain: EvalDomain::Auto,
            deadline_ms: 0,
            predicates: batch.to_vec(),
        },
        &RequestMeta::default(),
    );
    match response {
        Response::BatchRows(replies) => replies,
        other => panic!("shard evaluation failed: {other:?}"),
    }
}

/// Splits `rows` at the (unsorted, possibly duplicated) cut fractions,
/// yielding shard boundaries that may well produce empty shards.
fn boundaries(rows: usize, cuts: &[f64]) -> Vec<usize> {
    let mut at: Vec<usize> = cuts.iter().map(|f| (f * rows as f64) as usize).collect();
    at.sort_unstable();
    at.dedup();
    at.retain(|&a| a <= rows);
    let mut bounds = vec![0];
    bounds.extend(at);
    bounds.push(rows);
    bounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_evaluation_is_bit_identical_to_monolith(
        rows in 64usize..1200,
        zipf_z in prop::sample::select(vec![0.0, 1.0, 2.0]),
        data_seed in any::<u64>(),
        query_seed in any::<u64>(),
        cuts in prop::collection::vec(0.0f64..=1.0, 0..5),
        scheme in prop::sample::select(vec![
            EncodingScheme::Equality,
            EncodingScheme::Interval,
            EncodingScheme::EqualityIntervalStar,
        ]),
    ) {
        let cardinality = 24u64;
        let column = DatasetSpec { rows, cardinality, zipf_z, seed: data_seed }
            .generate()
            .values;
        let batch: Vec<String> = QuerySetSpec { n_int: 2, n_equ: 1 }
            .generate(cardinality, 6, query_seed)
            .iter()
            .map(|q| {
                let vals: Vec<String> = q.values().iter().map(u64::to_string).collect();
                format!("in:{}", vals.join(","))
            })
            .collect();

        let expected = evaluate(&column, cardinality, scheme, &batch);

        let bounds = boundaries(rows, &cuts);
        let shards: Vec<ShardReply> = bounds
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0], w[1]);
                let replies = if lo == hi {
                    // An empty shard serves no rows; its batch reply is
                    // an empty row set per predicate.
                    vec![
                        RowsReply { scans: 0, decompressions: 0, rows: RowSet::new() };
                        batch.len()
                    ]
                } else {
                    evaluate(&column[lo..hi], cardinality, scheme, &batch)
                };
                ShardReply { row_base: lo as u64, replies }
            })
            .collect();

        let merged = merge_replies(batch.len(), &shards);

        prop_assert_eq!(merged.len(), expected.len());
        for (got, want) in merged.iter().zip(&expected) {
            // Row identity is the contract; scan/decompression counts
            // legitimately differ between one big index and its slices.
            prop_assert_eq!(&got.rows, &want.rows);
        }
        // Global row order must also be sorted, as a monolith's is.
        for reply in &merged {
            prop_assert!(reply.rows.windows(2).all(|w| w[0] < w[1]));
        }
    }
}

/// The list-based row payload encoder that bitmap-backed replies
/// replaced: the reply's rows as a list, re-packed as a dense window when
/// they are strictly ascending and the window is smaller.
fn oracle_encode_rows(out: &mut Vec<u8>, scans: u64, decompressions: u64, rows: &[u64]) {
    out.extend_from_slice(&scans.to_le_bytes());
    out.extend_from_slice(&decompressions.to_le_bytes());
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    let window = (|| {
        let (&first, &last) = (rows.first()?, rows.last()?);
        let words = (last - first) / 64 + 1;
        let fits = words
            .checked_mul(64)
            .and_then(|bits| first.checked_add(bits));
        if words + 2 >= rows.len() as u64 || fits.is_none() {
            return None;
        }
        rows.windows(2)
            .all(|w| w[0] < w[1])
            .then_some((first, words))
    })();
    match window {
        Some((first, words)) => {
            out.push(1);
            out.extend_from_slice(&first.to_le_bytes());
            out.extend_from_slice(&words.to_le_bytes());
            let at = out.len();
            out.resize(at + 8 * words as usize, 0);
            for &row in rows {
                let i = row - first;
                out[at + (i / 8) as usize] |= 1 << (i % 8);
            }
        }
        None => {
            out.push(0);
            for &row in rows {
                out.extend_from_slice(&row.to_le_bytes());
            }
        }
    }
}

/// A v1 reply frame of `kind` around `payload`, as the list-based
/// encoder laid it out.
fn oracle_frame(request_id: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bix_storage::crc32(payload).to_le_bytes());
    out
}

/// The list-based encoding of a row reply frame, each reply's rows
/// given as a plain list.
fn oracle_reply_bytes(request_id: u64, response: &Response) -> Vec<u8> {
    let mut payload = Vec::new();
    let rows = |out: &mut Vec<u8>, r: &RowsReply| {
        let list: Vec<u64> = r.rows.ids().collect();
        oracle_encode_rows(out, r.scans, r.decompressions, &list);
    };
    let kind = match response {
        Response::Rows(r) => {
            rows(&mut payload, r);
            0x82
        }
        Response::BatchRows(all) => {
            payload.extend_from_slice(&(all.len() as u32).to_le_bytes());
            for r in all {
                rows(&mut payload, r);
            }
            0x83
        }
        Response::Degraded {
            missing_shards,
            replies,
        } => {
            payload.extend_from_slice(&(missing_shards.len() as u32).to_le_bytes());
            for s in missing_shards {
                payload.extend_from_slice(&s.to_le_bytes());
            }
            payload.extend_from_slice(&(replies.len() as u32).to_le_bytes());
            for r in replies {
                rows(&mut payload, r);
            }
            0x86
        }
        other => panic!("not a row reply: {other:?}"),
    };
    oracle_frame(request_id, kind, &payload)
}

/// Encodes `response`, checks the bytes against the list-based oracle,
/// and returns what a peer decodes from them.
fn wire_round_trip(response: Response) -> Response {
    let frame = Frame::new(7, Message::Response(response));
    let bytes = encode_frame(&frame);
    let Message::Response(sent) = &frame.msg else {
        unreachable!("built as a response")
    };
    assert_eq!(bytes, oracle_reply_bytes(7, sent), "frame bytes diverge");
    let (got, used) = decode_frame(&bytes).expect("a row reply frame decodes");
    assert_eq!(used, bytes.len());
    assert_eq!(got.msg, frame.msg, "row reply round-trips");
    match got.msg {
        Message::Response(r) => r,
        Message::Request(r) => panic!("decoded a request: {r:?}"),
    }
}

/// Shard row counts — zero and values off a multiple of 64 included —
/// each with a row set over its rows: empty, sparse enough to travel as
/// a list, or dense enough to travel as a window.
fn arb_shards() -> impl Strategy<Value = Vec<(usize, Vec<u64>)>> {
    let count = prop_oneof![Just(0usize), Just(64), 1usize..700];
    let density = prop::sample::select(vec![0.0, 0.004, 0.03, 0.3, 0.9, 1.0]);
    prop::collection::vec((count, density, any::<u64>()), 1..5).prop_map(|shards| {
        shards
            .into_iter()
            .map(|(n, p, seed)| {
                let mut state = seed;
                let rows = (0..n as u64)
                    .filter(|_| {
                        // splitmix64: a uniform draw in [0, 1) per row.
                        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let mut z = state;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                        (((z ^ (z >> 31)) >> 11) as f64) < p * (1u64 << 53) as f64
                    })
                    .collect();
                (n, rows)
            })
            .collect()
    })
}

/// The bitmap words of `rows` over `n` rows, as a result bitmap holds
/// them.
fn words_of(n: usize, rows: &[u64]) -> Vec<u64> {
    let mut words = vec![0u64; n.div_ceil(64)];
    for &r in rows {
        words[(r / 64) as usize] |= 1 << (r % 64);
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitmap_replies_merge_and_encode_like_row_lists(
        shards in arb_shards(),
        missing in prop::collection::vec(0u16..8, 0..3),
    ) {
        // Each shard replies from its result bitmap's words; the router
        // decodes the frame and merges what it decoded.
        let mut row_base = 0u64;
        let mut decoded = Vec::new();
        let mut want: Vec<u64> = Vec::new();
        for (i, (n, rows)) in shards.iter().enumerate() {
            let reply = RowsReply {
                scans: i as u64 + 1,
                decompressions: 2,
                rows: RowSet::from_words(&words_of(*n, rows)),
            };
            prop_assert_eq!(&reply.rows, rows);
            let Response::Rows(got) = wire_round_trip(Response::Rows(reply)) else {
                panic!("a Rows frame decodes as Rows");
            };
            prop_assert_eq!(&got.rows, rows);
            want.extend(rows.iter().map(|r| r + row_base));
            decoded.push(ShardReply { row_base, replies: vec![got] });
            row_base += *n as u64;
        }
        let merged = merge_replies(1, &decoded);
        prop_assert_eq!(merged.len(), 1);
        prop_assert_eq!(merged[0].rows.len(), want.len());
        prop_assert_eq!(&merged[0].rows, &want);
        prop_assert_eq!(&merged[0].rows[..], &want[..]);
        prop_assert_eq!(merged[0].scans, (1..=shards.len() as u64).sum::<u64>());

        // The merged reply leaves the router as Rows, BatchRows or
        // Degraded; each frame matches the list-based bytes.
        wire_round_trip(Response::Rows(merged[0].clone()));
        wire_round_trip(Response::BatchRows(vec![merged[0].clone(), merged[0].clone()]));
        let degraded = wire_round_trip(Response::Degraded {
            missing_shards: missing.clone(),
            replies: merged.clone(),
        });
        let Response::Degraded { missing_shards, replies } = degraded else {
            panic!("a Degraded frame decodes as Degraded");
        };
        prop_assert_eq!(missing_shards, missing);
        prop_assert_eq!(&replies[0].rows, &want);
    }
}

/// A catalog over `rows` rows of deterministic columns seeded by `seed`.
fn build_catalog(rows: usize, seed: u64) -> Catalog {
    let col = |modulus: u64, mul: u64| -> Vec<u64> {
        (0..rows as u64)
            .map(|i| (i.wrapping_mul(mul) ^ seed.rotate_left(i as u32 % 64)) % modulus)
            .collect()
    };
    let (region, store) = (col(4, 13), col(20, 7));
    Catalog::build(
        rows,
        &[
            (
                "region",
                &region,
                IndexConfig::one_component(4, EncodingScheme::Equality),
            ),
            (
                "store",
                &store,
                IndexConfig::one_component(20, EncodingScheme::Interval),
            ),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn catalog_table_replies_round_trip_as_row_lists(
        rows in 1usize..900,
        seed in any::<u64>(),
        text in prop::sample::select(vec![
            "region = 1",
            "store = 3 and region = 2",
            "not store = 5",
            "region in {0, 1} or store >= 18",
        ]),
    ) {
        let mut table = build_catalog(rows, seed).into_table();
        let plan = Planner::plan_text(&table.schema(), text).expect("plan");
        let want: Vec<u64> = table
            .execute_plan(&plan, &CostModel::default())
            .bitmap
            .to_positions()
            .iter()
            .map(|&p| p as u64)
            .collect();
        let handler = CatalogHandler::new(build_catalog(rows, seed), &ServerConfig::default());
        let response = handler.handle(
            Request::TableQuery {
                domain: EvalDomain::Auto,
                deadline_ms: 0,
                count_only: false,
                text: text.into(),
            },
            &RequestMeta::default(),
        );
        let Response::Rows(got) = wire_round_trip(response) else {
            panic!("a table query answers Rows");
        };
        prop_assert_eq!(&got.rows, &want);
    }
}
