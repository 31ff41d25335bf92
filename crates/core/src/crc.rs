//! CRC32C (Castagnoli) — the checksum guarding every durable byte.
//!
//! Implemented in-tree (no external dependency) as the classic
//! byte-at-a-time table walk over the reflected Castagnoli polynomial
//! `0x1EDC6F41` (reversed: `0x82F63B78`) — the same CRC used by iSCSI,
//! ext4 metadata, and most storage engines, chosen for its better burst-
//! and random-error detection than CRC32 (IEEE). The index file's header
//! and extent table, every extent, and every WAL record carry one of
//! these; a mismatch on load is reported as a typed corruption error,
//! never a panic.
//!
//! The table build is a `const fn`, so the 1 KiB lookup table is computed
//! at compile time and lives in rodata.

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// Folds `data` into a running CRC32C `state` (use [`crc32c`] unless you
/// are checksumming incrementally). The state is the *internal* (already
/// inverted) form: start from `!0`, finish with `^ !0`.
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        let idx = usize::from((state ^ u32::from(b)) as u8);
        state = TABLE[idx] ^ (state >> 8);
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
