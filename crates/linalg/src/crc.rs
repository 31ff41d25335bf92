//! CRC-32C (Castagnoli) — the checksum guarding every durable byte.
//!
//! The reflected Castagnoli polynomial `0x1EDC6F41` (reversed:
//! `0x82F63B78`) is the CRC of iSCSI, ext4 metadata and most storage
//! engines, chosen for its better burst- and random-error detection than
//! CRC-32 (IEEE). The index file's header and extent table, every extent
//! and every WAL record carry one; a mismatch on load is a typed
//! corruption error, never a panic. `vaq_core::crc` re-exports this
//! module: the crate that reads files forbids `unsafe`, and this one holds
//! the in-register kernels.
//!
//! Every open checksums the whole file, so the CRC runs on the machine's
//! own instruction when it has one: SSE4.2 `crc32` on x86-64 and ARMv8
//! `crc32cx` compute Castagnoli exactly, eight bytes per instruction, in
//! three streams, since one is latency-bound below a streaming read (8.5
//! against 21 GB/s on a 16 MiB buffer, 2-vCPU x86-64 box). Everything else
//! runs slice-by-8: eight bytes per step through eight tables
//! (`TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes),
//! built by a `const fn` into rodata.
//!
//! The path is picked once per process ([`active_crc`]) and follows the
//! scan tier: where the scan runs its scalar kernel — a
//! `VAQ_FORCE_KERNEL=scalar` pin, Miri, a CPU without SIMD — the CRC runs
//! slice-by-8, so a pinned test run covers the table path. Every path
//! computes the same value; only the time differs.

use crate::qtables::{active_kernel, ScanKernel};
use std::sync::OnceLock;

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One implementation: its name (for `vaq_cli kernels`) and its update.
type CrcPath = (&'static str, fn(u32, &[u8]) -> u32);

const SLICE_BY_8: CrcPath = ("slice-by-8", update_slice_by_8);

/// The hardware path this CPU has, if any, whatever the scan tier.
fn hardware() -> Option<CrcPath> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 support verified just above.
        return Some(("sse4.2", |s, data| unsafe { hw::update_sse42(s, data) }));
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    if std::arch::is_aarch64_feature_detected!("crc") {
        // SAFETY: the aarch64 `crc` feature verified just above.
        return Some(("aarch64-crc", |s, data| unsafe { hw::update_aarch64(s, data) }));
    }
    // Miri interprets no CRC intrinsics; other targets have none.
    None
}

/// The path every [`update`] and [`crc32c`] of this process takes, picked
/// once: slice-by-8 under the scalar scan tier, else the hardware
/// instruction where the CPU has it.
fn active() -> CrcPath {
    static PATH: OnceLock<CrcPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        let hardware = hardware().filter(|_| active_kernel() != ScanKernel::Scalar);
        hardware.unwrap_or(SLICE_BY_8)
    })
}

/// The name of the path this process takes: `sse4.2`, `aarch64-crc` or
/// `slice-by-8`.
pub fn active_crc() -> &'static str {
    active().0
}

/// Folds `data` into a running CRC-32C `state` (use [`crc32c`] unless you
/// are checksumming incrementally). The state is the *internal* (already
/// inverted) form: start from `!0`, finish with `^ !0`.
pub fn update(state: u32, data: &[u8]) -> u32 {
    (active().1)(state, data)
}

/// The CRC-32C of `data` (standard init `!0` / final xor `!0`).
pub fn crc32c(data: &[u8]) -> u32 {
    update(!0u32, data) ^ !0u32
}

fn update_slice_by_8(mut state: u32, data: &[u8]) -> u32 {
    let lane = |word: u32, shift: u32| usize::from((word >> shift) as u8);
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = TABLES[7][lane(lo, 0)]
            ^ TABLES[6][lane(lo, 8)]
            ^ TABLES[5][lane(lo, 16)]
            ^ TABLES[4][lane(lo, 24)]
            ^ TABLES[3][lane(hi, 0)]
            ^ TABLES[2][lane(hi, 8)]
            ^ TABLES[1][lane(hi, 16)]
            ^ TABLES[0][lane(hi, 24)];
    }
    for &b in tail {
        state = TABLES[0][lane(state ^ u32::from(b), 0)] ^ (state >> 8);
    }
    state
}

/// The in-register paths, on the targets that have one (Miri interprets
/// no CRC intrinsic).
#[cfg(all(any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
mod hw {
    use super::POLY;

    /// Bytes each of the three hardware streams takes per round; merging a
    /// round's streams costs two [`mul_mod`]s, a few percent of the round.
    pub(super) const LANE: usize = 8192;

    /// `x^(8·LANE)` modulo the polynomial: appending `LANE` bytes multiplies
    /// a state by it. `8·LANE` is a power of two, so it is `x` (bit 30 in the
    /// reflected order) squared `log2(8·LANE)` times.
    const SHIFT: u32 = {
        let (mut k, mut n) = (1u32 << 30, 8 * LANE);
        while n > 1 {
            k = mul_mod(k, k);
            n >>= 1;
        }
        k
    };

    /// `a·b` modulo the polynomial, in the reflected order (bit 31 is `x^0`),
    /// with no branch per bit.
    const fn mul_mod(a: u32, mut b: u32) -> u32 {
        let (mut p, mut i) = (0u32, 0);
        while i < 32 {
            p ^= b & 0u32.wrapping_sub((a >> (31 - i)) & 1);
            b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
            i += 1;
        }
        p
    }

    /// The hardware paths' loop over the CPU's 8-byte (`word`) and 1-byte
    /// (`byte`) CRC instruction: rounds of three independent streams, which
    /// hide the instruction's latency, merged by `update(s, A‖B) =
    /// x^(8|B|)·s ⊕ update(0, B)`; then one stream over the rest. The
    /// instructions take the reflected state as is, so this is slice-by-8
    /// exactly. A word step's state is held in 64 bits (the upper half
    /// stays zero), the width x86-64's instruction takes, so no conversion
    /// sits in its dependency chain.
    #[inline(always)]
    fn three_streams(
        state: u32,
        data: &[u8],
        word: impl Fn(u64, &[u8; 8]) -> u64,
        byte: impl Fn(u32, u8) -> u32,
    ) -> u32 {
        let mut rounds = data.chunks_exact(3 * LANE);
        let mut state = u64::from(state);
        for round in &mut rounds {
            let (a, rest) = round.as_chunks::<8>().0.split_at(LANE / 8);
            let (b, c) = rest.split_at(LANE / 8);
            let (mut sa, mut sb, mut sc) = (state, 0, 0);
            for ((wa, wb), wc) in a.iter().zip(b).zip(c) {
                (sa, sb, sc) = (word(sa, wa), word(sb, wb), word(sc, wc));
            }
            let merged = mul_mod(SHIFT, mul_mod(SHIFT, sa as u32) ^ sb as u32) ^ sc as u32;
            state = u64::from(merged);
        }
        let (words, tail) = rounds.remainder().as_chunks::<8>();
        let state = words.iter().fold(state, &word) as u32;
        tail.iter().fold(state, |s, &b| byte(s, b))
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse4.2")]
    pub(super) fn update_sse42(state: u32, data: &[u8]) -> u32 {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
        let word = |s, w: &[u8; 8]| _mm_crc32_u64(s, u64::from_le_bytes(*w));
        three_streams(state, data, word, |s, b| _mm_crc32_u8(s, b))
    }

    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "crc")]
    pub(super) fn update_aarch64(state: u32, data: &[u8]) -> u32 {
        use std::arch::aarch64::{__crc32cb, __crc32cd};
        let word = |s: u64, w: &[u8; 8]| u64::from(__crc32cd(s as u32, u64::from_le_bytes(*w)));
        three_streams(state, data, word, |s, b| __crc32cb(s, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paths this machine can run, whatever `VAQ_FORCE_KERNEL` pins.
    fn paths() -> impl Iterator<Item = CrcPath> {
        std::iter::once(SLICE_BY_8).chain(hardware())
    }

    /// The definition, one bit at a time, folded into a running state.
    fn bitwise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc
    }

    fn bytes(len: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    /// Every length `0..=4096` at every start alignment `0..8`, then one
    /// buffer of 1 MiB + 7 bytes whole and split (a round of three
    /// streams from a state other than the initial one), against the
    /// bitwise definition.
    fn assert_matches_definition((name, update): CrcPath) {
        let max = if cfg!(miri) { 64 } else { 4096 };
        let pool = bytes(max + 8);
        for start in 0..8 {
            // The definition grows one byte per length.
            let mut want = !0u32;
            for len in 0..=max {
                let data = &pool[start..start + len];
                assert_eq!(update(!0, data), want, "{name} len {len} start {start}");
                if let Some(&b) = pool.get(start + len) {
                    want = bitwise(want, &[b]);
                }
            }
        }
        // Miri interprets every byte: the tails and alignments above cover
        // slice-by-8 there, and the hardware rounds do not run.
        #[cfg(all(any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
        {
            let big = bytes((1 << 20) + 7);
            let want = bitwise(!0, &big);
            assert_eq!(update(!0, &big), want, "{name} 1 MiB + 7");
            let cut = 3 * hw::LANE + 13;
            let split = update(update(!0, &big[..cut]), &big[cut..]);
            assert_eq!(split, want, "{name} split at {cut}");
        }
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 §B.4 / SSE4.2 reference vectors, on the active path and
        // on every path this CPU has.
        let ascending: Vec<u8> = (0u8..32).collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want);
            for (name, update) in paths() {
                assert_eq!(update(!0, data) ^ !0, want, "{name}");
            }
        }
    }

    #[test]
    fn slice_by_8_matches_the_bitwise_definition() {
        assert_matches_definition(SLICE_BY_8);
    }

    #[test]
    fn hardware_matches_the_bitwise_definition() {
        if let Some(path) = hardware() {
            assert_matches_definition(path);
        }
    }

    #[test]
    fn incremental_update_matches_one_shot() {
        // The extent writer and the WAL checksum in pieces: every split
        // point of a 64-byte input.
        let data = bytes(64);
        let whole = bitwise(!0, &data);
        for (name, update) in paths() {
            for cut in 0..=data.len() {
                let state = update(update(!0, &data[..cut]), &data[cut..]);
                assert_eq!(state, whole, "{name} split at {cut}");
            }
        }
    }

    #[test]
    fn active_path_follows_the_scan_tier() {
        let hardware = hardware().filter(|_| active_kernel() != ScanKernel::Scalar);
        assert_eq!(active_crc(), hardware.unwrap_or(SLICE_BY_8).0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"0123456789abcdef".to_vec();
        let clean = crc32c(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "missed flip at {byte}:{bit}");
            }
        }
    }
}
