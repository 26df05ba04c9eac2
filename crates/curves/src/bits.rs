//! Bit-interleaving kernels shared by the Morton, Gray-code, and Hilbert
//! curves.
//!
//! Three tiers, all byte-identical on every input:
//!
//! * **pinned references** ([`interleave_reference`], [`deinterleave_reference`],
//!   [`gray_decode_reference`]) — the original per-bit loops, kept as the
//!   ground truth for equivalence tests and bench baselines;
//! * **portable branch-free kernels** ([`interleave`], [`deinterleave`]) —
//!   magic-mask spread/compact with log-step doubling, ~4-8x over per-bit,
//!   pure safe code, used for all single-cell calls;
//! * **BMI2 batch kernels** ([`interleave_batch`], [`deinterleave_batch`]) —
//!   `pdep`/`pext` behind runtime feature detection on x86-64, falling back
//!   to the portable kernels everywhere else.
//!
//! Dispatch is decided once per process (and once per batch thereafter via a
//! relaxed atomic load). Set the `SFC_PORTABLE_KERNELS` environment variable
//! to a non-empty value other than `0` — or call [`force_portable_kernels`]
//! from a test — to pin the portable path regardless of CPU support.

use onion_core::Point;
use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------------

const DISPATCH_UNDECIDED: u8 = 0;
const DISPATCH_ACCELERATED: u8 = 1;
const DISPATCH_PORTABLE: u8 = 2;

/// Process-wide dispatch decision for the batch kernels.
static DISPATCH: AtomicU8 = AtomicU8::new(DISPATCH_UNDECIDED);

#[cold]
fn decide_dispatch() -> u8 {
    let state = if !onion_core::portable_kernels_forced() && accel::available() {
        DISPATCH_ACCELERATED
    } else {
        DISPATCH_PORTABLE
    };
    DISPATCH.store(state, Ordering::Relaxed);
    state
}

#[inline]
fn kernels_accelerated() -> bool {
    match DISPATCH.load(Ordering::Relaxed) {
        DISPATCH_ACCELERATED => true,
        DISPATCH_PORTABLE => false,
        _ => decide_dispatch() == DISPATCH_ACCELERATED,
    }
}

/// Whether the batch kernels currently dispatch to the BMI2 `pdep`/`pext`
/// path (true only on x86-64 CPUs with BMI2, and only when the portable
/// override is not in force).
pub fn accelerated_kernels_active() -> bool {
    kernels_accelerated()
}

/// Test-only override pinning the batch kernels to the portable fallback.
///
/// `force_portable_kernels(false)` re-runs feature detection (honouring the
/// `SFC_PORTABLE_KERNELS` environment variable). The override is process-wide;
/// tests that toggle it should compare the explicit `*_portable` kernels
/// instead when running in a shared process.
pub fn force_portable_kernels(on: bool) {
    let state = if on {
        DISPATCH_PORTABLE
    } else {
        DISPATCH_UNDECIDED
    };
    DISPATCH.store(state, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Pinned per-bit references
// ---------------------------------------------------------------------------

/// Pinned per-bit reference for [`interleave`]; ground truth for tests and
/// the scalar baseline in `bench_hotpath`.
pub fn interleave_reference<const D: usize>(p: Point<D>, bits: u32) -> u64 {
    let mut out = 0u64;
    for b in 0..bits {
        for d in 0..D {
            let bit = u64::from((p.0[d] >> b) & 1);
            out |= bit << (b as usize * D + d);
        }
    }
    out
}

/// Pinned per-bit reference for [`deinterleave`].
pub fn deinterleave_reference<const D: usize>(idx: u64, bits: u32) -> Point<D> {
    let mut coords = [0u32; D];
    for b in 0..bits {
        for (d, c) in coords.iter_mut().enumerate() {
            let bit = ((idx >> (b as usize * D + d)) & 1) as u32;
            *c |= bit << b;
        }
    }
    Point::new(coords)
}

/// Pinned per-bit reference for [`gray_decode`].
pub fn gray_decode_reference(mut g: u64) -> u64 {
    let mut v = g;
    while g > 0 {
        g >>= 1;
        v ^= g;
    }
    v
}

// ---------------------------------------------------------------------------
// Portable branch-free magic-mask kernels
// ---------------------------------------------------------------------------

/// Spreads the low 32 bits of `x` to even bit positions (stride 2).
#[inline]
fn spread2(mut x: u64) -> u64 {
    x &= 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// Inverse of [`spread2`]: compacts even bit positions into the low 32 bits.
#[inline]
fn compact2(mut x: u64) -> u64 {
    x &= 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF
}

/// Spreads the low 21 bits of `x` to every third bit position (stride 3).
#[inline]
fn spread3(mut x: u64) -> u64 {
    x &= 0x001F_FFFF;
    x = (x | (x << 32)) & 0x001F_0000_0000_FFFF;
    x = (x | (x << 16)) & 0x001F_0000_FF00_00FF;
    x = (x | (x << 8)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x << 4)) & 0x10C3_0C30_C30C_30C3;
    (x | (x << 2)) & 0x1249_2492_4924_9249
}

/// Inverse of [`spread3`].
#[inline]
fn compact3(mut x: u64) -> u64 {
    x &= 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x >> 4)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x >> 8)) & 0x001F_0000_FF00_00FF;
    x = (x | (x >> 16)) & 0x001F_0000_0000_FFFF;
    (x | (x >> 32)) & 0x001F_FFFF
}

/// Spreads the low 16 bits of `x` to every fourth bit position (stride 4).
#[inline]
fn spread4(mut x: u64) -> u64 {
    x &= 0xFFFF;
    x = (x | (x << 24)) & 0x0000_00FF_0000_00FF;
    x = (x | (x << 12)) & 0x000F_000F_000F_000F;
    x = (x | (x << 6)) & 0x0303_0303_0303_0303;
    (x | (x << 3)) & 0x1111_1111_1111_1111
}

/// Inverse of [`spread4`].
#[inline]
fn compact4(mut x: u64) -> u64 {
    x &= 0x1111_1111_1111_1111;
    x = (x | (x >> 3)) & 0x0303_0303_0303_0303;
    x = (x | (x >> 6)) & 0x000F_000F_000F_000F;
    x = (x | (x >> 12)) & 0x0000_00FF_0000_00FF;
    (x | (x >> 24)) & 0xFFFF
}

/// `bits` consecutive low one-bits, saturating at all ones for `bits >= 64`.
#[inline]
fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        !0
    } else {
        (1u64 << bits) - 1
    }
}

/// Interleaves the low `bits` bits of each coordinate into a single index.
///
/// Bit `b` of dimension `d` lands at position `b * D + d`, so dimension 0
/// provides the least significant bit of each group — the classic Morton
/// layout, `D * bits ≤ 63`. Branch-free magic-mask kernel for `D ∈ {2, 3, 4}`
/// (per-bit reference beyond), byte-identical to [`interleave_reference`].
#[inline]
pub fn interleave<const D: usize>(p: Point<D>, bits: u32) -> u64 {
    // Runtime-index the coordinates so unused match arms never instantiate an
    // out-of-bounds constant index for small D.
    let c = |d: usize| u64::from(p.0[d]) & low_mask(bits);
    match D {
        2 => spread2(c(0)) | (spread2(c(1)) << 1),
        3 => spread3(c(0)) | (spread3(c(1)) << 1) | (spread3(c(2)) << 2),
        4 => spread4(c(0)) | (spread4(c(1)) << 1) | (spread4(c(2)) << 2) | (spread4(c(3)) << 3),
        _ => interleave_reference(p, bits),
    }
}

/// Inverse of [`interleave`]; byte-identical to [`deinterleave_reference`].
#[inline]
pub fn deinterleave<const D: usize>(idx: u64, bits: u32) -> Point<D> {
    let masked = idx & low_mask(bits.saturating_mul(D as u32));
    let mut coords = [0u32; D];
    match D {
        2 => {
            for (d, c) in coords.iter_mut().enumerate() {
                *c = compact2(masked >> d) as u32;
            }
        }
        3 => {
            for (d, c) in coords.iter_mut().enumerate() {
                *c = compact3(masked >> d) as u32;
            }
        }
        4 => {
            for (d, c) in coords.iter_mut().enumerate() {
                *c = compact4(masked >> d) as u32;
            }
        }
        _ => return deinterleave_reference(idx, bits),
    }
    Point::new(coords)
}

// ---------------------------------------------------------------------------
// Gray code
// ---------------------------------------------------------------------------

/// Binary-reflected Gray code of `v`.
#[inline]
pub fn gray_encode(v: u64) -> u64 {
    v ^ (v >> 1)
}

/// Inverse of [`gray_encode`]: O(log bits) prefix-XOR fold (six doubling
/// steps instead of the per-bit loop pinned in [`gray_decode_reference`]).
#[inline]
pub fn gray_decode(mut g: u64) -> u64 {
    g ^= g >> 1;
    g ^= g >> 2;
    g ^= g >> 4;
    g ^= g >> 8;
    g ^= g >> 16;
    g ^= g >> 32;
    g
}

/// 32-bit variant of [`gray_decode`], used by the Hilbert transform fold.
#[inline]
pub fn gray_decode32(mut g: u32) -> u32 {
    g ^= g >> 1;
    g ^= g >> 2;
    g ^= g >> 4;
    g ^= g >> 8;
    g ^= g >> 16;
    g
}

// ---------------------------------------------------------------------------
// Batch kernels with BMI2 dispatch
// ---------------------------------------------------------------------------

/// The `pdep`/`pext` deposit masks for each dimension: bits `b * D + d` for
/// `b < bits`.
#[inline]
fn morton_masks<const D: usize>(bits: u32) -> [u64; D] {
    let mut masks = [0u64; D];
    for (d, m) in masks.iter_mut().enumerate() {
        for b in 0..bits as usize {
            *m |= 1u64 << (b * D + d);
        }
    }
    masks
}

/// Appends `interleave(p, bits)` for every point, deciding the dispatch arm
/// (BMI2 `pdep` or portable magic masks) once for the whole batch.
pub fn interleave_batch<const D: usize>(points: &[Point<D>], bits: u32, out: &mut Vec<u64>) {
    out.reserve(points.len());
    if kernels_accelerated() {
        let masks = morton_masks::<D>(bits);
        if accel::interleave_batch(points, &masks, out) {
            return;
        }
    }
    interleave_batch_portable(points, bits, out);
}

/// Appends `deinterleave(idx, bits)` for every index, deciding the dispatch
/// arm (BMI2 `pext` or portable magic masks) once for the whole batch.
pub fn deinterleave_batch<const D: usize>(indices: &[u64], bits: u32, out: &mut Vec<Point<D>>) {
    out.reserve(indices.len());
    if kernels_accelerated() {
        let masks = morton_masks::<D>(bits);
        if accel::deinterleave_batch(indices, &masks, out) {
            return;
        }
    }
    deinterleave_batch_portable(indices, bits, out);
}

/// The portable arm of [`interleave_batch`], exposed so equivalence tests can
/// exercise it explicitly even on BMI2 hosts.
pub fn interleave_batch_portable<const D: usize>(
    points: &[Point<D>],
    bits: u32,
    out: &mut Vec<u64>,
) {
    out.reserve(points.len());
    for &p in points {
        out.push(interleave(p, bits));
    }
}

/// The portable arm of [`deinterleave_batch`], exposed so equivalence tests
/// can exercise it explicitly even on BMI2 hosts.
pub fn deinterleave_batch_portable<const D: usize>(
    indices: &[u64],
    bits: u32,
    out: &mut Vec<Point<D>>,
) {
    out.reserve(indices.len());
    for &idx in indices {
        out.push(deinterleave(idx, bits));
    }
}

/// The accelerated arm of [`interleave_batch`]; returns `false` (appending
/// nothing) when BMI2 is unavailable, letting tests compare both arms.
pub fn interleave_batch_accelerated<const D: usize>(
    points: &[Point<D>],
    bits: u32,
    out: &mut Vec<u64>,
) -> bool {
    let masks = morton_masks::<D>(bits);
    accel::interleave_batch(points, &masks, out)
}

/// The accelerated arm of [`deinterleave_batch`]; returns `false` (appending
/// nothing) when BMI2 is unavailable, letting tests compare both arms.
pub fn deinterleave_batch_accelerated<const D: usize>(
    indices: &[u64],
    bits: u32,
    out: &mut Vec<Point<D>>,
) -> bool {
    let masks = morton_masks::<D>(bits);
    accel::deinterleave_batch(indices, &masks, out)
}

/// BMI2 `pdep`/`pext` kernels — the only unsafe code in the crate, confined
/// to this module. The intrinsics cannot fault; the only precondition is
/// that the CPU supports BMI2, which every entry point verifies via
/// `is_x86_feature_detected!` before entering the `#[target_feature]` fns.
#[cfg(target_arch = "x86_64")]
mod accel {
    #![allow(unsafe_code)]

    use onion_core::Point;

    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("bmi2")
    }

    /// # Safety
    /// The CPU must support BMI2.
    #[target_feature(enable = "bmi2")]
    unsafe fn interleave_bmi2<const D: usize>(
        points: &[Point<D>],
        masks: &[u64; D],
        out: &mut Vec<u64>,
    ) {
        use core::arch::x86_64::_pdep_u64;
        for p in points {
            let mut idx = 0u64;
            for (coord, mask) in p.0.iter().zip(masks) {
                idx |= _pdep_u64(u64::from(*coord), *mask);
            }
            out.push(idx);
        }
    }

    /// # Safety
    /// The CPU must support BMI2.
    #[target_feature(enable = "bmi2")]
    unsafe fn deinterleave_bmi2<const D: usize>(
        indices: &[u64],
        masks: &[u64; D],
        out: &mut Vec<Point<D>>,
    ) {
        use core::arch::x86_64::_pext_u64;
        for &idx in indices {
            let mut coords = [0u32; D];
            for (c, mask) in coords.iter_mut().zip(masks) {
                *c = _pext_u64(idx, *mask) as u32;
            }
            out.push(Point::new(coords));
        }
    }

    pub fn interleave_batch<const D: usize>(
        points: &[Point<D>],
        masks: &[u64; D],
        out: &mut Vec<u64>,
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: BMI2 support verified above.
        unsafe { interleave_bmi2(points, masks, out) };
        true
    }

    pub fn deinterleave_batch<const D: usize>(
        indices: &[u64],
        masks: &[u64; D],
        out: &mut Vec<Point<D>>,
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: BMI2 support verified above.
        unsafe { deinterleave_bmi2(indices, masks, out) };
        true
    }
}

/// Non-x86-64 stub: the accelerated arm never engages.
#[cfg(not(target_arch = "x86_64"))]
mod accel {
    use onion_core::Point;

    #[inline]
    pub fn available() -> bool {
        false
    }

    pub fn interleave_batch<const D: usize>(
        _points: &[Point<D>],
        _masks: &[u64; D],
        _out: &mut Vec<u64>,
    ) -> bool {
        false
    }

    pub fn deinterleave_batch<const D: usize>(
        _indices: &[u64],
        _masks: &[u64; D],
        _out: &mut Vec<Point<D>>,
    ) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_known_pattern_2d() {
        // x = 0b11, y = 0b01 → bits: y1 x1 y0 x0 = 0 1 1 1 = 7.
        assert_eq!(interleave(Point::new([0b11u32, 0b01]), 2), 0b0111);
        // x provides even bit positions, y odd ones.
        assert_eq!(interleave(Point::new([1u32, 0]), 1), 1);
        assert_eq!(interleave(Point::new([0u32, 1]), 1), 2);
    }

    #[test]
    fn interleave_roundtrip_3d() {
        for v in 0..512u64 {
            let p: Point<3> = deinterleave(v, 3);
            assert_eq!(interleave(p, 3), v);
        }
    }

    #[test]
    fn gray_code_is_bijective_and_unit_distance() {
        for v in 0..1024u64 {
            assert_eq!(gray_decode(gray_encode(v)), v);
        }
        for v in 1..1024u64 {
            let diff = gray_encode(v) ^ gray_encode(v - 1);
            assert_eq!(diff.count_ones(), 1, "gray codes differ in exactly one bit");
        }
    }

    #[test]
    fn gray_decode_matches_reference_fold() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            assert_eq!(gray_decode(x), gray_decode_reference(x));
            assert_eq!(
                u64::from(gray_decode32(x as u32)),
                gray_decode_reference(u64::from(x as u32))
            );
        }
        assert_eq!(gray_decode(0), 0);
        assert_eq!(gray_decode(u64::MAX), gray_decode_reference(u64::MAX));
    }

    /// The magic-mask kernels are byte-identical to the pinned per-bit
    /// reference on random inputs, including coordinates with garbage above
    /// the `bits` cut-off.
    #[test]
    fn portable_kernels_match_reference() {
        let mut x = 1u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for _ in 0..2048 {
            let raw = [next() as u32, next() as u32, next() as u32, next() as u32];
            for bits in [1u32, 5, 15, 21, 31] {
                let p2 = Point::new([raw[0], raw[1]]);
                assert_eq!(interleave(p2, bits), interleave_reference(p2, bits));
                let idx = next();
                assert_eq!(
                    deinterleave::<2>(idx, bits),
                    deinterleave_reference(idx, bits)
                );
            }
            for bits in [1u32, 7, 21] {
                let p3 = Point::new([raw[0], raw[1], raw[2]]);
                assert_eq!(interleave(p3, bits), interleave_reference(p3, bits));
                let idx = next();
                assert_eq!(
                    deinterleave::<3>(idx, bits),
                    deinterleave_reference(idx, bits)
                );
            }
            for bits in [1u32, 9, 15] {
                let p4 = Point::new(raw);
                assert_eq!(interleave(p4, bits), interleave_reference(p4, bits));
                let idx = next();
                assert_eq!(
                    deinterleave::<4>(idx, bits),
                    deinterleave_reference(idx, bits)
                );
            }
        }
    }

    /// Both dispatch arms of the batch kernels agree with the reference; the
    /// accelerated arm is exercised explicitly whenever the host has BMI2.
    #[test]
    fn batch_arms_match_reference() {
        let mut x = 42u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        let points: Vec<Point<3>> = (0..257)
            .map(|_| Point::new([next() as u32, next() as u32, next() as u32]))
            .collect();
        let indices: Vec<u64> = (0..257).map(|_| next()).collect();
        for bits in [1u32, 8, 21] {
            let expect_idx: Vec<u64> = points
                .iter()
                .map(|&p| interleave_reference(p, bits))
                .collect();
            let expect_pts: Vec<Point<3>> = indices
                .iter()
                .map(|&i| deinterleave_reference(i, bits))
                .collect();

            let mut got = Vec::new();
            interleave_batch(&points, bits, &mut got);
            assert_eq!(got, expect_idx);
            got.clear();
            interleave_batch_portable(&points, bits, &mut got);
            assert_eq!(got, expect_idx);
            got.clear();
            if interleave_batch_accelerated(&points, bits, &mut got) {
                assert_eq!(got, expect_idx, "BMI2 interleave diverged (bits {bits})");
            }

            let mut gotp = Vec::new();
            deinterleave_batch(&indices, bits, &mut gotp);
            assert_eq!(gotp, expect_pts);
            gotp.clear();
            deinterleave_batch_portable(&indices, bits, &mut gotp);
            assert_eq!(gotp, expect_pts);
            gotp.clear();
            if deinterleave_batch_accelerated(&indices, bits, &mut gotp) {
                assert_eq!(gotp, expect_pts, "BMI2 deinterleave diverged (bits {bits})");
            }
        }
    }

    /// The forced-portable override flips the reported dispatch arm off and
    /// back on (re-detection), without changing results.
    #[test]
    fn portable_override_controls_dispatch() {
        let points = [Point::new([3u32, 5]), Point::new([1024u32, 65535])];
        let mut baseline = Vec::new();
        interleave_batch(&points, 16, &mut baseline);

        force_portable_kernels(true);
        assert!(!accelerated_kernels_active());
        let mut forced = Vec::new();
        interleave_batch(&points, 16, &mut forced);
        assert_eq!(forced, baseline);
        force_portable_kernels(false);
    }
}
