//! Allocation bounds of the sequence decoder: a hostile length prefix must
//! not make [`decode_seq`] reserve more memory than the frame it arrived
//! in. WAL replay, snapshot reads and the wire protocol's `Records` and
//! `Epoch` responses all decode through it, so a 64 MiB frame claiming
//! `u32::MAX` elements must not reserve gigabytes before the first
//! element fails to decode.
//!
//! A std-only global allocator records the largest single allocation
//! (or reallocation) made on the current thread. The record is
//! thread-local, so tests running in parallel do not see each other's
//! allocations.

use onion_core::Point;
use sfc_index::{decode_seq, encode_seq, BatchOp, Record, WalCursor};
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
