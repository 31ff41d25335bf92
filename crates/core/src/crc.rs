//! CRC32C (Castagnoli) — the checksum guarding every durable byte.
//!
//! Implemented in-tree (no external dependency) as slice-by-8 over the
//! reflected Castagnoli polynomial `0x1EDC6F41` (reversed: `0x82F63B78`)
//! — the same CRC used by iSCSI, ext4 metadata, and most storage engines,
//! chosen for its better burst- and random-error detection than CRC32
//! (IEEE). The index file's header and extent table, every extent, and
//! every WAL record carry one of these; a mismatch on load is reported as
//! a typed corruption error, never a panic.
//!
//! Every open checksums the whole file, so the loop folds eight bytes per
//! step through eight tables (`TABLES[k][b]` is the CRC of byte `b`
//! followed by `k` zero bytes) instead of one byte through one. The table
//! build is a `const fn`, so the 8 KiB of tables is computed at compile
//! time and lives in rodata.

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

/// Folds `data` into a running CRC32C `state` (use [`crc32c`] unless you
/// are checksumming incrementally). The state is the *internal* (already
/// inverted) form: start from `!0`, finish with `^ !0`.
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    let lane = |word: u32, shift: u32| usize::from((word >> shift) as u8);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
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
    for &b in words.remainder() {
        state = TABLES[0][lane(state ^ u32::from(b), 0)] ^ (state >> 8);
    }
    state
}

/// The CRC32C of `data` (standard init `!0` / final xor `!0`).
pub fn crc32c(data: &[u8]) -> u32 {
    update(!0u32, data) ^ !0u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 §B.4 / SSE4.2 reference vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    /// The definition: one bit at a time.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc ^ !0u32
    }

    #[test]
    fn slice_by_8_matches_the_bitwise_definition() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let pool: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect();
        // Every tail length and every start alignment, then a spread of
        // longer runs.
        for len in (0..=64).chain((65..=4096).step_by(61)).chain([4095, 4096]) {
            for start in 0..8 {
                let data = &pool[start..start + len];
                assert_eq!(crc32c(data), bitwise(data), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn incremental_update_matches_one_shot() {
        let data = b"variance-aware quantization";
        let whole = crc32c(data);
        let mut state = !0u32;
        for chunk in data.chunks(5) {
            state = update(state, chunk);
        }
        assert_eq!(state ^ !0u32, whole);
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
