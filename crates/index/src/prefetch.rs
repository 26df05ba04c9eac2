//! Software prefetch hints for the pointer-chasing scan, multi-range
//! landing and batch-apply paths.
//!
//! A linked-leaf range scan and a permutation-ordered batch apply share a
//! memory access pattern the hardware prefetcher cannot learn: the next
//! address is data-dependent (a leaf's `next` link, a sort permutation's
//! next slot), so each hop is a serial cache miss. Both paths, however,
//! *know* the next address well before they need its contents — so they
//! hand it to the cache early with a non-binding `prefetcht0` hint and
//! overlap the miss with the work on the current element.
//!
//! The third user is the multi-range scan (`BPlusTree::scan_ranges`). A
//! query plan's ranges each land on a cold leaf — the leaf node, then the
//! key lines a binary search reads — and no landing depends on the range
//! before it. So the scan descends a few ranges ahead, hints each landing
//! leaf's node and then every line of its key array, and the plan's
//! landings overlap instead of queuing one behind another.
//!
//! This unsafe code is unsafe in name only: `_mm_prefetch` performs no
//! memory access, affects no architectural state, and is explicitly
//! documented to be valid for any address, including null and dangling
//! ones. On non-x86_64 targets the hint compiles to nothing. The crate
//! root narrows `forbid(unsafe_code)` to `deny` so this module and
//! `checksum` (the CRC-32 kernel) can scope an `allow` around their
//! intrinsics; everything else still refuses unsafe code at compile time.
#![allow(unsafe_code)]

/// Hints the cache hierarchy to load the line containing `p` (all levels,
/// `_MM_HINT_T0`). Non-binding and side-effect free: a wrong or useless
/// hint costs at most a wasted line fill, never correctness.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    // SAFETY: `_mm_prefetch` is a pure hint. It does not dereference `p`,
    // cannot fault (the instruction suppresses all exceptions, per the
    // Intel SDM), and requires only SSE, which is part of the x86_64
    // baseline — no runtime feature detection needed.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
}

/// No-op fallback: other architectures get no hint (correctness is
/// unaffected — prefetching is purely an optimization).
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub(crate) fn prefetch_read<T>(_p: *const T) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_harmless_for_any_address() {
        // A hint must never fault: live, dangling, and null addresses are
        // all valid operands.
        let x = 42u64;
        prefetch_read(&x);
        prefetch_read(std::ptr::null::<u64>());
        prefetch_read(0xdead_beef_usize as *const u64);
    }
}
