//! Wire-codec round trips, pinned by property tests:
//!
//! * **Every `Request` variant** and **every `Response` variant**
//!   survives encode → decode bit-exactly, including back-to-back in one
//!   buffer (no variant over- or under-reads its encoding);
//! * **Every `SfcError` variant** survives the wire with its stable
//!   numeric code intact — a remote caller sees the same typed error a
//!   local caller would;
//! * **Truncation safety:** every strict prefix of a valid encoding
//!   decodes to `None` (never panics, never mis-decodes), and unknown
//!   tags are rejected;
//! * **Hostile bytes:** random payloads, valid encodings with one byte
//!   flipped, and valid encodings with any four bytes set to `u32::MAX`
//!   (so every count prefix is hit) decode to `None` or a value without
//!   panicking, and no single allocation outgrows the payload by more
//!   than a decoded value can;
//! * **Golden bytes:** one fixed instance of every variant encodes to
//!   the bytes of `PROTOCOL_VERSION` 1 — a renumbered tag or reordered
//!   field fails here even if it round-trips.

use onion_core::{Point, SfcError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_clustering::RectQuery;
use sfc_engine::{Admitted, EngineStats, Request, Response};
use sfc_index::{BatchOp, QueryPlan, Record, WalCodec, WalCursor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Notes `size` as this thread's largest allocation if it is. `try_with`
/// because the allocator also runs while thread-locals are torn down.
fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

/// The system allocator, recording allocation sizes per thread, so tests
/// running in parallel do not see each other's allocations.
struct Recording;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only updates a const-initialized
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

const SIDE: u32 = 64;

fn arb_point(rng: &mut StdRng) -> Point<2> {
    Point::new([rng.random_range(0..SIDE), rng.random_range(0..SIDE)])
}

fn arb_query(rng: &mut StdRng) -> RectQuery<2> {
    let len = [rng.random_range(1..=8u32), rng.random_range(1..=8u32)];
    let lo = [
        rng.random_range(0..SIDE - len[0]),
        rng.random_range(0..SIDE - len[1]),
    ];
    RectQuery::new(lo, len).expect("in-universe query")
}

fn arb_string(rng: &mut StdRng) -> String {
    let n = rng.random_range(0..40usize);
    (0..n)
        .map(|_| char::from(rng.random_range(b' '..=b'~')))
        .collect()
}

/// Every [`SfcError`] variant, with randomized fields.
fn arb_error(rng: &mut StdRng, variant: usize) -> SfcError {
    match variant {
        0 => SfcError::ZeroSide,
        1 => SfcError::UniverseTooLarge {
            side: rng.random_range(0..u32::MAX),
            dims: rng.random_range(0..64),
        },
        2 => SfcError::SideNotPowerOfTwo {
            side: rng.random_range(0..u32::MAX),
        },
        3 => SfcError::PointOutOfBounds {
            point: arb_string(rng),
            side: rng.random_range(0..u32::MAX),
        },
        4 => SfcError::IndexOutOfBounds {
            index: rng.random_range(0..u64::MAX),
            cells: rng.random_range(0..u64::MAX),
        },
        5 => SfcError::DimensionUnsupported {
            dims: rng.random_range(0..64),
        },
        6 => SfcError::Storage {
            context: arb_string(rng),
        },
        7 => SfcError::Unavailable {
            context: arb_string(rng),
        },
        8 => SfcError::DeadlineExceeded {
            context: arb_string(rng),
        },
        9 => SfcError::ConnectionLost {
            context: arb_string(rng),
        },
        10 => SfcError::TornFrame {
            context: arb_string(rng),
        },
        11 => SfcError::AmbiguousWrite {
            context: arb_string(rng),
        },
        12 => SfcError::EpochTruncated {
            requested: rng.random_range(0..u64::MAX),
            horizon: rng.random_range(0..u64::MAX),
        },
        _ => SfcError::ReadOnly {
            context: arb_string(rng),
        },
    }
}

const ERROR_VARIANTS: usize = 14;

fn arb_records(rng: &mut StdRng) -> Vec<Record<2, u64>> {
    (0..rng.random_range(0..12usize))
        .map(|_| Record {
            point: arb_point(rng),
            value: rng.random_range(0..u64::MAX),
        })
        .collect()
}

fn arb_batch(rng: &mut StdRng) -> Vec<BatchOp<2, u64>> {
    (0..rng.random_range(0..12usize))
        .map(|_| match rng.random_range(0..3u8) {
            0 => BatchOp::Insert(arb_point(rng), rng.random_range(0..u64::MAX)),
            1 => BatchOp::Update(arb_point(rng), rng.random_range(0..u64::MAX)),
            _ => BatchOp::Delete(arb_point(rng)),
        })
        .collect()
}

fn arb_plan(rng: &mut StdRng) -> QueryPlan {
    QueryPlan {
        ranges: (0..rng.random_range(1..6usize))
            .map(|_| {
                let lo: u64 = rng.random_range(0..1 << 20);
                (lo, lo + rng.random_range(0..64u64))
            })
            .collect(),
        clusters: rng.random_range(1..32),
        extra_cells: rng.random_range(0..1000),
        hit_rate: rng.random_range(0..=1000) as f64 / 1000.0,
        est_full_us: rng.random_range(0..1_000_000) as f64 / 7.0,
        est_chosen_us: rng.random_range(0..1_000_000) as f64 / 7.0,
        shard_skew: 1.0 + rng.random_range(0..5000) as f64 / 1000.0,
    }
}

fn arb_stats(rng: &mut StdRng) -> EngineStats {
    EngineStats {
        gets: rng.random_range(0..u64::MAX),
        queries: rng.random_range(0..u64::MAX),
        writes: rng.random_range(0..u64::MAX),
        epochs: rng.random_range(0..u64::MAX),
        pending: rng.random_range(0..u64::MAX),
        flush_failures: rng.random_range(0..u64::MAX),
        durable_epochs: rng.random_range(0..u64::MAX),
    }
}

/// Every [`Request`] variant, in tag order.
fn arb_request(rng: &mut StdRng, variant: usize) -> Request<2, u64> {
    match variant {
        0 => Request::Ping,
        1 => Request::Get(arb_point(rng)),
        2 => Request::Query(arb_query(rng)),
        3 => Request::QueryAsOf {
            epoch: rng.random_range(0..u64::MAX),
            query: arb_query(rng),
        },
        4 => Request::Insert(arb_point(rng), rng.random_range(0..u64::MAX)),
        5 => Request::Update(arb_point(rng), rng.random_range(0..u64::MAX)),
        6 => Request::Delete(arb_point(rng)),
        7 => Request::Flush,
        8 => Request::Checkpoint,
        9 => Request::Stats,
        10 => Request::Explain(arb_query(rng)),
        _ => Request::SubscribeEpochs {
            from: rng.random_range(0..u64::MAX),
        },
    }
}

const REQUEST_VARIANTS: usize = 12;

/// Every [`Response`] variant, in tag order.
fn arb_response(rng: &mut StdRng, variant: usize) -> Response<2, u64> {
    match variant {
        0 => Response::Pong,
        1 => Response::Value(if rng.random_bool(0.5) {
            Some(rng.random_range(0..u64::MAX))
        } else {
            None
        }),
        2 => Response::Records(arb_records(rng)),
        3 => Response::Admitted(Admitted {
            epoch: rng.random_range(0..u64::MAX),
        }),
        4 => Response::Flushed {
            applied: rng.random_range(0..u64::MAX),
        },
        5 => Response::Checkpointed {
            epoch: rng.random_range(0..u64::MAX),
        },
        6 => Response::Stats(arb_stats(rng)),
        7 => Response::Explained(arb_plan(rng)),
        8 => Response::Epoch {
            epoch: rng.random_range(0..u64::MAX),
            durable_epoch: rng.random_range(0..u64::MAX),
            ops: arb_batch(rng),
        },
        9 => Response::Lagged,
        10 => {
            let v = rng.random_range(0..ERROR_VARIANTS);
            Response::Error(arb_error(rng, v))
        }
        _ => Response::Subscribed {
            start_epoch: rng.random_range(0..u64::MAX),
        },
    }
}

const RESPONSE_VARIANTS: usize = 12;

/// Round-trips `value` alone and back-to-back with `next` in one buffer:
/// decoding must consume exactly the encoding (no over- or under-read).
fn roundtrip<T: WalCodec + PartialEq + std::fmt::Debug>(value: &T, next: &T) {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    let solo_len = buf.len();
    next.encode(&mut buf);
    let mut cur = WalCursor::new(&buf);
    assert_eq!(T::decode(&mut cur).as_ref(), Some(value), "first decode");
    assert_eq!(T::decode(&mut cur).as_ref(), Some(next), "second decode");

    // Every strict prefix of the first encoding is rejected cleanly.
    for cut in 0..solo_len {
        let mut cur = WalCursor::new(&buf[..cut]);
        assert!(
            T::decode(&mut cur).is_none(),
            "prefix of {cut}/{solo_len} bytes must not decode"
        );
    }
}

proptest! {
    /// Every `Request` variant round-trips, back-to-back, truncation-safe.
    #[test]
    fn every_request_variant_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..REQUEST_VARIANTS {
            let value = arb_request(&mut rng, variant);
            let next_variant = rng.random_range(0..REQUEST_VARIANTS);
            let next = arb_request(&mut rng, next_variant);
            roundtrip(&value, &next);
        }
    }

    /// Every `Response` variant round-trips, back-to-back, truncation-safe.
    #[test]
    fn every_response_variant_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..RESPONSE_VARIANTS {
            let value = arb_response(&mut rng, variant);
            let next_variant = rng.random_range(0..RESPONSE_VARIANTS);
            let next = arb_response(&mut rng, next_variant);
            roundtrip(&value, &next);
        }
    }

    /// Every `SfcError` variant survives the wire with its stable code —
    /// both standalone and wrapped in `Response::Error`.
    #[test]
    fn every_error_variant_survives_the_wire(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..ERROR_VARIANTS {
            let err = arb_error(&mut rng, variant);
            let mut buf = Vec::new();
            err.encode(&mut buf);
            let decoded = SfcError::decode(&mut WalCursor::new(&buf))
                .expect("error must decode");
            prop_assert_eq!(&decoded, &err);
            prop_assert_eq!(decoded.code(), err.code());
            roundtrip(
                &Response::<2, u64>::Error(err),
                &Response::<2, u64>::Error({
                    let v = rng.random_range(0..ERROR_VARIANTS);
                    arb_error(&mut rng, v)
                }),
            );
        }
    }
}

#[test]
fn error_codes_are_pinned() {
    // The wire contract: codes never change meaning across releases.
    let mut rng = StdRng::seed_from_u64(0);
    let codes: Vec<u16> = (0..ERROR_VARIANTS)
        .map(|v| arb_error(&mut rng, v).code())
        .collect();
    assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]);
}

#[test]
fn unknown_tags_are_rejected() {
    for tag in [REQUEST_VARIANTS as u8, 0x7f, 0xff] {
        let buf = [tag, 0, 0, 0];
        assert!(Request::<2, u64>::decode(&mut WalCursor::new(&buf)).is_none());
    }
    for tag in [RESPONSE_VARIANTS as u8, 0x7f, 0xff] {
        let buf = [tag, 0, 0, 0];
        assert!(Response::<2, u64>::decode(&mut WalCursor::new(&buf)).is_none());
    }
    assert!(Request::<2, u64>::decode(&mut WalCursor::new(&[])).is_none());
    assert!(Response::<2, u64>::decode(&mut WalCursor::new(&[])).is_none());
}

/// How much larger than its payload a decode may allocate. A decoded
/// value can outgrow its bytes: the widest ratio on this wire is an
/// `Epoch`'s `BatchOp<2, u64>`, which takes `size_of` bytes in memory
/// against 9 on the wire for a `Delete` (tag + point), and the ops vector
/// may double past its length while growing; a vector also starts at 4
/// slots. A decoder that trusted a hostile `u32::MAX` count prefix would
/// instead reserve about `u32::MAX` elements at once.
fn allocation_bound(payload_len: usize) -> usize {
    const DELETE_WIRE_LEN: usize = 1 + 2 * 4;
    let op = std::mem::size_of::<BatchOp<2, u64>>();
    payload_len * (2 * op).div_ceil(DELETE_WIRE_LEN) + 4 * op
}

/// Decodes `payload` as a `T`, which must return (`None` or a value)
/// without panicking and without any single allocation over
/// [`allocation_bound`].
fn decode_hostile<T: WalCodec>(payload: &[u8], what: &str) {
    LARGEST.with(|largest| largest.set(0));
    drop(T::decode(&mut WalCursor::new(payload)));
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= allocation_bound(payload.len()),
        "{what}: allocated {largest} bytes decoding a {}-byte payload",
        payload.len()
    );
}

/// Every hostile variation of one valid encoding: each byte flipped by a
/// random nonzero mask, and each 4-byte window (so every count prefix)
/// set to `u32::MAX`.
fn mangled<T: WalCodec>(value: &T, rng: &mut StdRng, what: &str) {
    let mut valid = Vec::new();
    value.encode(&mut valid);
    for at in 0..valid.len() {
        let mut flipped = valid.clone();
        flipped[at] ^= rng.random_range(1..=255u8);
        decode_hostile::<T>(&flipped, what);
    }
    for at in 0..valid.len().saturating_sub(3) {
        let mut counted = valid.clone();
        counted[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        decode_hostile::<T>(&counted, what);
    }
}

proptest! {
    /// Hostile payloads never panic the decoders nor make them allocate
    /// beyond what the payload's bytes can decode into.
    #[test]
    fn hostile_bytes_decode_without_panic_or_overallocation(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random payloads, half of them led by a valid tag so the
        // decoders get past the first byte.
        for _ in 0..64 {
            let len = rng.random_range(0..256usize);
            let mut payload: Vec<u8> = (0..len).map(|_| rng.random_range(0..=255u8)).collect();
            if len > 0 && rng.random_bool(0.5) {
                payload[0] = rng.random_range(0..REQUEST_VARIANTS.max(RESPONSE_VARIANTS)) as u8;
            }
            decode_hostile::<Request<2, u64>>(&payload, "random request");
            decode_hostile::<Response<2, u64>>(&payload, "random response");
        }
        for variant in 0..REQUEST_VARIANTS {
            let request = arb_request(&mut rng, variant);
            mangled(&request, &mut rng, request.verb());
        }
        for variant in 0..RESPONSE_VARIANTS {
            let response = arb_response(&mut rng, variant);
            mangled(&response, &mut rng, "response");
        }
    }
}

/// One fixed instance of each `Request` variant, in tag order.
fn golden_requests() -> Vec<Request<2, u64>> {
    let q = RectQuery::new([1, 2], [3, 4]).unwrap();
    vec![
        Request::Ping,
        Request::Get(Point::new([3, 4])),
        Request::Query(q),
        Request::QueryAsOf { epoch: 5, query: q },
        Request::Insert(Point::new([3, 4]), 0x0102_0304_0506_0708),
        Request::Update(Point::new([5, 6]), 9),
        Request::Delete(Point::new([7, 8])),
        Request::Flush,
        Request::Checkpoint,
        Request::Stats,
        Request::Explain(RectQuery::new([0, 0], [2, 2]).unwrap()),
        Request::SubscribeEpochs { from: 42 },
    ]
}

/// One fixed instance of each `Response` variant.
fn golden_responses() -> Vec<Response<2, u64>> {
    vec![
        Response::Pong,
        Response::Value(Some(7)),
        Response::Records(vec![
            Record {
                point: Point::new([1, 2]),
                value: 3,
            },
            Record {
                point: Point::new([4, 5]),
                value: 6,
            },
        ]),
        Response::Admitted(Admitted { epoch: 9 }),
        Response::Flushed { applied: 10 },
        Response::Checkpointed { epoch: 11 },
        Response::Stats(EngineStats {
            gets: 1,
            queries: 2,
            writes: 3,
            epochs: 4,
            pending: 5,
            flush_failures: 6,
            durable_epochs: 7,
        }),
        Response::Explained(QueryPlan {
            ranges: vec![(1, 2), (5, 9)],
            clusters: 3,
            extra_cells: 4,
            hit_rate: 0.5,
            est_full_us: 1.25,
            est_chosen_us: 0.75,
            shard_skew: 1.0,
        }),
        Response::Epoch {
            epoch: 12,
            durable_epoch: 11,
            ops: vec![
                BatchOp::Insert(Point::new([1, 1]), 1),
                BatchOp::Update(Point::new([2, 2]), 2),
                BatchOp::Delete(Point::new([3, 3])),
            ],
        },
        Response::Lagged,
        Response::Subscribed { start_epoch: 13 },
        Response::Error(SfcError::PointOutOfBounds {
            point: "(17, 1)".into(),
            side: 16,
        }),
    ]
}

/// `value` encodes to the hex string `golden`, and `golden` decodes
/// back to `value`.
fn check_golden<T: WalCodec + PartialEq + std::fmt::Debug>(value: &T, golden: &str) {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, golden, "{value:?}");
    assert_eq!(T::decode(&mut WalCursor::new(&buf)).as_ref(), Some(value));
}

/// The encodings of `PROTOCOL_VERSION` 1. The round-trip proptests would
/// pass a consistent renumbering of tags or a reordering of fields; this
/// test would not. Changing any line here is a protocol change: bump
/// `PROTOCOL_VERSION` with it.
#[test]
fn encodings_match_protocol_version_1_golden_bytes() {
    let requests = [
        "00",
        "010300000004000000",
        "0201000000020000000300000004000000",
        "03050000000000000001000000020000000300000004000000",
        "0403000000040000000807060504030201",
        "0505000000060000000900000000000000",
        "060700000008000000",
        "07",
        "08",
        "09",
        "0a00000000000000000200000002000000",
        "0b2a00000000000000",
    ];
    let responses = [
        "00",
        "01010700000000000000",
        "02020000000100000002000000030000000000000004000000050000000600000000000000",
        "030900000000000000",
        "040a00000000000000",
        "050b00000000000000",
        "060100000000000000020000000000000003000000000000000400000000000000\
         050000000000000006000000000000000700000000000000",
        "0702000000010000000000000002000000000000000500000000000000090000000000000003000000\
         000000000400000000000000000000000000e03f000000000000f43f000000000000e83f000000000000f03f",
        "080c000000000000000b000000000000000300000000010000000100000001000000000000000102000000\
         020000000200000000000000020300000003000000",
        "09",
        "0b0d00000000000000",
        "0a0400070000002831372c20312910000000",
    ];
    assert_eq!(golden_requests().len(), REQUEST_VARIANTS);
    for (request, golden) in golden_requests().iter().zip(requests) {
        check_golden(request, golden);
    }
    assert_eq!(golden_responses().len(), RESPONSE_VARIANTS);
    for (response, golden) in golden_responses().iter().zip(responses) {
        check_golden(response, golden);
    }
}
