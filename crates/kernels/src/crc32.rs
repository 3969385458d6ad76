//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
//! gzip and zip use, and the one guarding every tile chunk, tile
//! manifest, checkpoint section and CPU profile in this workspace.
//!
//! Slicing-by-16: sixteen 256-entry tables (16 KiB, built at compile
//! time, L1-resident) let the loop fold 16 input bytes per step with
//! independent table lookups instead of one dependent lookup per byte,
//! which is what keeps chunk verification at memory speed. Outputs are
//! identical to the byte-at-a-time table form (same init, same final
//! XOR). The workspace builds offline, so this carries no dependencies.

/// The reflected IEEE generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// CRC-32 (IEEE) of `bytes`: `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::{crc32, POLY};

    /// Bit-at-a-time CRC-32 with no table: the definition the sliced
    /// tables must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = (c >> 1) ^ (0u32.wrapping_sub(c & 1) & POLY);
            }
        }
        !c
    }

    fn pseudo_random(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn gzip_vector_and_empty_input() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn matches_bitwise_reference_at_every_length_and_offset() {
        let buf = pseudo_random(300 + 16, 0x9e37_79b9_7f4a_7c15);
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn matches_bitwise_reference_on_chunk_sized_buffers() {
        for seed in 1..=4u64 {
            let len = 80 * 1024 + seed as usize;
            let buf = pseudo_random(len, seed.wrapping_mul(0xa076_1d64_78bd_642f));
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "seed {seed}");
        }
    }
}
