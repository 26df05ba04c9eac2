//! Allocation bounds of the decoders: a hostile length prefix must not
//! make [`decode_seq`] reserve more memory than the frame it arrived in.
//! WAL replay, snapshot reads and the wire protocol's `Records` and
//! `Epoch` responses all decode through it, so a 64 MiB frame claiming
//! `u32::MAX` elements must not reserve gigabytes before the first
//! element fails to decode. Hostile `SFCSNP01` snapshot files — bodies
//! whose checksum matches, so the decoder and not the checksum must
//! reject them — get a typed error from [`read_snapshot`], never a panic,
//! within a stated allocation cap.
//!
//! A std-only global allocator records the largest single allocation
//! (or reallocation) made on the current thread. The record is
//! thread-local, so tests running in parallel do not see each other's
//! allocations.

use onion_core::{Onion2D, Point, SfcError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_index::{
    crc32, decode_seq, encode_seq, read_snapshot, write_snapshot, BatchOp, DiskModel, Record,
    ShardedTable, WalCursor, SNAPSHOT_MAGIC,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Notes `size` as this thread's largest allocation if it is. `try_with`
/// because the allocator also runs while thread-locals are torn down.
fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

/// The system allocator, recording allocation sizes per thread.
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

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// `[u32::MAX][0xFF × 1 MiB]`: a count no frame can hold, then filler.
fn hostile_frame() -> Vec<u8> {
    let mut frame = u32::MAX.to_le_bytes().to_vec();
    frame.resize(4 + (1 << 20), 0xFF);
    frame
}

#[test]
fn hostile_count_never_reserves_more_than_the_frame() {
    let frame = hostile_frame();

    // 0xFF is no op tag, so the first element fails to decode.
    let (ops, largest) =
        largest_allocation(|| decode_seq::<BatchOp<2, u64>>(&mut WalCursor::new(&frame)));
    assert!(ops.is_none());
    assert!(
        largest <= frame.len(),
        "BatchOp<2, u64>: reserved {largest} bytes for a {}-byte frame",
        frame.len()
    );

    // Every 16 bytes of filler is a valid record, so 65,536 decode before
    // the bytes run out, into a vector that never outgrows the frame.
    let (records, largest) =
        largest_allocation(|| decode_seq::<Record<2, u64>>(&mut WalCursor::new(&frame)));
    assert!(records.is_none());
    assert!(
        largest <= frame.len(),
        "Record<2, u64>: reserved {largest} bytes for a {}-byte frame",
        frame.len()
    );
}

#[test]
fn well_formed_sequences_still_decode() {
    let ops: Vec<BatchOp<2, u64>> = (0..10_000u32)
        .map(|i| match i % 3 {
            0 => BatchOp::Insert(Point::new([i, i ^ 7]), u64::from(i)),
            1 => BatchOp::Update(Point::new([i, 3]), u64::from(i) << 20),
            _ => BatchOp::Delete(Point::new([i / 2, i])),
        })
        .collect();
    let mut frame = Vec::new();
    encode_seq(&ops, &mut frame);
    let mut cur = WalCursor::new(&frame);
    // Deletes encode in 9 bytes but occupy a full `BatchOp` in memory, so
    // this vector outgrows its first reservation and must grow normally.
    assert_eq!(decode_seq::<BatchOp<2, u64>>(&mut cur), Some(ops));
    assert_eq!(cur.remaining(), 0);
}

/// `read_snapshot`'s allocation cap: no single allocation beyond twice
/// the file's length, plus 1 KiB for the path and the error text it
/// formats (which dominate only for files of a few hundred bytes).
fn snapshot_cap(file_len: usize) -> usize {
    2 * file_len + 1024
}

fn snapshot_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hostile-snapshots");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `body` to `path` as an `SFCSNP01` file whose checksum matches
/// it; returns the file's length.
fn write_snapshot_body(path: &Path, body: &[u8]) -> usize {
    let mut bytes = SNAPSHOT_MAGIC.to_vec();
    bytes.extend_from_slice(&crc32(body).to_le_bytes());
    bytes.extend_from_slice(body);
    std::fs::write(path, &bytes).unwrap();
    bytes.len()
}

/// `read_snapshot` must refuse `body` with a typed `Storage` error, and
/// allocate no more than [`snapshot_cap`] on the way.
fn assert_refused(name: &str, body: &[u8]) {
    let path = snapshot_dir().join(format!("{name}.snap"));
    let len = write_snapshot_body(&path, body);
    let (res, largest) = largest_allocation(|| read_snapshot::<2, u64>(&path));
    std::fs::remove_file(&path).unwrap();
    assert!(
        matches!(res, Err(SfcError::Storage { .. })),
        "{name}: expected a Storage error, got {res:?}"
    );
    assert!(
        largest <= snapshot_cap(len),
        "{name}: allocated {largest} bytes reading a {len}-byte snapshot"
    );
}

/// The body of a real snapshot: 3 shards over 40 records.
fn valid_snapshot_body() -> Vec<u8> {
    let records: Vec<(Point<2>, u64)> = (0..40u32)
        .map(|i| (Point::new([i % 16, i / 3]), u64::from(i) << 8))
        .collect();
    let table =
        ShardedTable::build(Onion2D::new(16).unwrap(), records, DiskModel::ssd(), 3).unwrap();
    let path = snapshot_dir().join("valid.snap");
    write_snapshot(&path, 7, &table).unwrap();
    let (epoch, entries) = read_snapshot::<2, u64>(&path).unwrap().unwrap();
    assert_eq!((epoch, entries.len()), (7, 40));
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes[12..].to_vec()
}

#[test]
fn hostile_snapshot_counts_are_refused_within_the_cap() {
    let filler = 1usize << 20;
    // `u32::MAX` shard sections, then 1 MiB of zeros: 43,690 empty
    // sections decode before the bytes run out.
    let mut body = 3u64.to_le_bytes().to_vec();
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    body.resize(body.len() + filler, 0);
    assert_refused("u32-max-shards", &body);

    // One section claiming `u64::MAX` entries over 1 MiB of 0xFF: every
    // 24 bytes is a well-formed entry, so 43,690 decode before the bytes
    // run out, into a vector that stays within twice the file.
    let mut body = 3u64.to_le_bytes().to_vec();
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&u64::MAX.to_le_bytes());
    body.extend_from_slice(&u64::MAX.to_le_bytes());
    body.resize(body.len() + filler, 0xFF);
    assert_refused("u64-max-count", &body);
}

#[test]
fn truncated_snapshot_bodies_are_refused() {
    let body = valid_snapshot_body();
    // Every strict prefix of a well-formed body, checksummed as if whole.
    for cut in 0..body.len() {
        assert_refused("truncated", &body[..cut]);
    }
    // Trailing bytes after the last section are refused too.
    let mut long = body;
    long.push(0);
    assert_refused("trailing-byte", &long);
}

#[test]
fn random_snapshot_bodies_are_refused() {
    let mut rng = StdRng::seed_from_u64(0x5F5C_5350);
    for round in 0..64 {
        let len = rng.random_range(0..4096usize);
        let body: Vec<u8> = (0..len).map(|_| rng.random_range(0..=u8::MAX)).collect();
        assert_refused(&format!("random-{round}"), &body);
    }
}
