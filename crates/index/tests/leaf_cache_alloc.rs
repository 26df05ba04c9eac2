//! Allocation count of a segment leaf miss: once the leaf cache's pool
//! is full, a miss reads the page into a spare buffer and decodes it
//! into the vector of the leaf it evicts, so a scan that misses on every
//! leaf allocates nothing.
//!
//! A std-only global allocator counts the allocations (and
//! reallocations) made on the current thread. The count is thread-local,
//! so tests running in parallel do not see each other's allocations.
//! This file holds only this test, so its allocator touches nothing
//! else.

use sfc_index::{FileStore, SegmentTree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on this thread. `try_with` because the
/// allocator also runs while thread-locals are torn down.
fn note() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// The system allocator, counting allocations per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only updates a const-initialized
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations it
/// made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_full_pool_scans_without_allocating() {
    let dir = test_dir("leaf-cache-alloc");
    let entries: Vec<(u64, u64)> = (0..65_536u64).map(|k| (k * 3, k)).collect();
    let seg: SegmentTree<u64> = SegmentTree::build(
        FileStore::create(&dir.join("scan.seg"), 4096).unwrap(),
        16,
        entries.iter().copied(),
    )
    .unwrap();
    let scan_all = || {
        let mut sum = 0u64;
        let io = seg
            .scan(0, u64::MAX, &mut |_, &v, _| sum = sum.wrapping_add(v))
            .unwrap();
        (sum, io)
    };
    // The warm-up scan fills the pool's 16 slots and the spare page list.
    let (warm, _) = scan_all();
    let ((sum, io), count) = allocations(scan_all);
    assert_eq!(sum, warm);
    assert_eq!(sum, entries.iter().map(|&(_, v)| v).sum::<u64>());
    assert!(
        io.real_reads > 300 && io.cache_hits == 0,
        "every leaf of the second scan misses: {io:?}"
    );
    assert_eq!(
        count, 0,
        "{} misses made {count} allocations",
        io.real_reads
    );
    drop(seg);
    let _ = std::fs::remove_dir_all(&dir);
}
