//! CRC-32 (IEEE 802.3 polynomial, reflected): the checksum on every
//! segment page, WAL frame, `SFCSNP01` snapshot and `SFCNET01` wire frame.
//!
//! Two tiers, bit-identical on every input:
//!
//! * **portable** ([`crc32_portable`]) — slicing-by-8 table lookups, pure
//!   safe code. It checksums inputs shorter than `FOLD_MIN_LEN` (128)
//!   bytes and the sub-16-byte tail of longer ones, runs on every target,
//!   and is the pinned reference the accelerated tier is tested against;
//! * **carry-less multiply** — on x86-64 CPUs with `pclmulqdq` and
//!   `sse4.1`, four 128-bit lanes fold 64 bytes per step with
//!   `_mm_clmulepi64_si128`, fold to one lane, reduce 128 → 64 bits and
//!   finish with a Barrett reduction (Gopal et al., "Fast CRC Computation
//!   for Generic Polynomials Using PCLMULQDQ", Intel 2009 — the shape of
//!   zlib's, Chromium's and Linux's `crc32-pclmul`). A 4 KiB page costs
//!   about a twelfth of the table loop (`index/crc32/page4k`).
//!
//! [`crc32`] picks the tier once per process, like the bit kernels in
//! `sfc-baselines`: the accelerated one when the CPU has both features and
//! [`onion_core::portable_kernels_forced`] (the `SFC_PORTABLE_KERNELS`
//! override) is off. Other targets compile only the portable tier.
//!
//! Besides `prefetch`, this is the crate's only module with `unsafe` code:
//! the call into the `#[target_feature]` kernel, made only after the
//! features were detected, and the unaligned 16-byte loads, each from a
//! reference to exactly 16 bytes of the input slice.
#![allow(unsafe_code)]

/// Inputs shorter than this stay on the table loop: below it the fold's
/// fixed set-up and reduction cost more than they save. Wire frames of
/// gets and updates (10–30 bytes) never enter the kernel.
const FOLD_MIN_LEN: usize = 128;

/// CRC-32 lookup tables for slicing-by-8, built at compile time:
/// `TABLES[0]` is the classic one-lookup-per-byte table (used for the
/// tail), and `TABLES[k][i]` extends it by `k` zero bytes, so eight
/// lookups advance the CRC over eight message bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`. Strong enough to catch torn writes and bit
/// rot in a page or frame; not a cryptographic digest. Dispatches to a
/// carry-less-multiply (`pclmulqdq`) kernel for inputs of 128 bytes or
/// more when the CPU supports it and `SFC_PORTABLE_KERNELS` is unset, and
/// to slicing-by-8 tables otherwise; every tier returns the same value.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN_LEN && clmul::active() {
        // SAFETY: `active()` is true only after `is_x86_feature_detected!`
        // found `pclmulqdq` and `sse4.1` on this CPU, the features the
        // kernel is compiled for.
        return unsafe { clmul::crc32(bytes) };
    }
    !update(!0, bytes)
}

/// The portable tier of [`crc32`] — slicing-by-8 over the whole input.
/// Public as the pinned reference for equivalence tests and the
/// `bench_hotpath` baseline; callers should use [`crc32`].
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Advances the CRC register `c` (pre-inversion) over `bytes`:
/// eight table lookups per eight bytes, with the classic per-byte update
/// on the remainder.
fn update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (chunks, rest) = bytes.as_chunks::<8>();
    for chunk in chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in rest {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };
    use std::sync::OnceLock;

    // Folding constants for the IEEE polynomial 0x1_04C1_1DB7, each a
    // power of x modulo P, bit-reflected (Gopal et al.): k1/k2 carry a
    // lane 512 bits forward, k3/k4 128 bits, k5 folds 96 → 64 bits.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial itself and its Barrett constant `μ = x^64 / P`,
    /// both reflected.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether this process checksums through the kernel: decided once,
    /// from the CPU's features and the portable-kernel override.
    pub(super) fn active() -> bool {
        static ACTIVE: OnceLock<bool> = OnceLock::new();
        *ACTIVE.get_or_init(|| !onion_core::portable_kernels_forced() && available())
    }

    /// Whether the CPU has the kernel's features (regardless of the
    /// override).
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Unaligned load of one 16-byte block.
    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is a live reference to exactly the 16 bytes
        // `_mm_loadu_si128` reads; the unaligned load has no alignment
        // requirement, and SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// One fold step: carries `acc` 128 (or, with k1/k2, 512) bits forward
    /// by multiplying its halves by `k`'s, then adds `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// CRC-32 of `bytes`, which must be at least 64 bytes long: the
    /// kernel folds every whole 16-byte block and leaves the tail to the
    /// table loop. Callers must have checked [`available`] (calling it is
    /// `unsafe` for that reason).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let (first, rest) = quads.split_first().expect("the kernel needs 64 bytes");

        // Four lanes, 64 bytes per step; the initial register (all ones)
        // enters through the first lane.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut lanes = first.map(|b| load(&b));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(!0));
        for quad in rest {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold16(*lane, k1k2, load(block));
            }
        }

        // Fold the four lanes into one, then any remaining 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [l0, l1, l2, l3] = lanes;
        let mut acc = fold16(fold16(fold16(l0, k3k4, l1), k3k4, l2), k3k4, l3);
        for block in singles {
            acc = fold16(acc, k3k4, load(block));
        }

        // 128 → 64 bits: fold the low half onto the high (k4), then the
        // low 32 bits of the result onto the rest (k5).
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction to 32 bits: q = floor(x / P) via μ, x - q·P.
        let poly = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly);
        let state = _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32;
        !super::update(state, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// The kernel alone, bypassing dispatch (and the override), so the
    /// accelerated tier is checked on every host that has it — also when
    /// the suite runs with `SFC_PORTABLE_KERNELS` set.
    #[cfg(target_arch = "x86_64")]
    fn kernel(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < FOLD_MIN_LEN || !clmul::available() {
            return None;
        }
        // SAFETY: `available()` just detected the kernel's features.
        Some(unsafe { clmul::crc32(bytes) })
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn kernel(_bytes: &[u8]) -> Option<u32> {
        None
    }

    /// Every length from empty to past the 4 KiB page, at every offset
    /// within a 16-byte block: the 128-byte cut-off, every tail length
    /// and the leaf, fence and header page sizes.
    #[test]
    fn dispatched_crc_matches_reference_at_every_length_and_offset() {
        let buf = random_bytes(17, 4200 + 16);
        for offset in 0..16 {
            for len in 0..=4200 {
                let bytes = &buf[offset..offset + len];
                let want = crc32_portable(bytes);
                assert_eq!(crc32(bytes), want, "len {len} offset {offset}");
                if let Some(got) = kernel(bytes) {
                    assert_eq!(got, want, "kernel, len {len} offset {offset}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn dispatched_crc_matches_reference_on_arbitrary_bytes(
            seed in any::<u64>(),
            len in 0usize..9000,
            fill in any::<u8>(),
        ) {
            // Random bytes, plus a constant run (all-zero and all-one
            // pages are the common degenerate inputs).
            for bytes in [random_bytes(seed, len), vec![fill; len]] {
                let want = crc32_portable(&bytes);
                prop_assert_eq!(crc32(&bytes), want);
                if let Some(got) = kernel(&bytes) {
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value. A self-consistent but
        // IEEE-incompatible implementation would reject every log written
        // by a previous build, so these pins are load-bearing.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Longer vectors spanning several 8-byte slices plus an odd tail,
        // exercising every lane of the slicing-by-8 tables (reference
        // values from zlib's crc32).
        let bytes: Vec<u8> = (0u8..37).collect();
        assert_eq!(crc32(&bytes), 0x8222_EFE9);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Inputs long enough for the kernel, from an independent
        // implementation (Python's `zlib.crc32`), checked on every tier.
        let ramp = |n: usize| -> Vec<u8> { (0..n).map(|i| i as u8).collect() };
        for (bytes, want) in [
            (ramp(128), 0x2465_0D57),
            (ramp(1000), 0x74E3_FB41),
            (ramp(4092), 0x55C7_57F6),
            (ramp(4096), 0xA291_2082),
            (vec![0u8; 4096], 0xC71C_0011),
        ] {
            assert_eq!(crc32(&bytes), want, "{} bytes", bytes.len());
            assert_eq!(crc32_portable(&bytes), want, "{} bytes", bytes.len());
            if let Some(got) = kernel(&bytes) {
                assert_eq!(got, want, "kernel, {} bytes", bytes.len());
            }
        }
    }
}
