//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven and
//! dependency-free — the frame checksum for WAL records and run blocks.
//!
//! The reflected table is computed at compile time, so the hot path is one
//! table lookup + xor per byte. This is the same CRC `gzip`/`zlib` use,
//! which makes the on-disk values easy to cross-check with standard tools.

/// The reflected lookup table for polynomial `0xEDB88320`.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The CRC-32 of `bytes` (initial value `!0`, final xor `!0` — the standard
/// IEEE parameterization).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The CRC-32 of `prefix ++ bytes`, given `crc == crc32(prefix)`: one
/// checksum over data held in separate buffers, without joining them.
pub fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // the canonical check value for this parameterization
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn extending_a_checksum_equals_the_checksum_of_the_concatenation() {
        let whole = b"The quick brown fox jumps over the lazy dog";
        for cut in 0..=whole.len() {
            let (head, tail) = whole.split_at(cut);
            assert_eq!(crc32_extend(crc32(head), tail), crc32(whole), "cut {cut}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = crc32(b"cpclean");
        let mut bytes = *b"cpclean";
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                assert_ne!(crc32(&bytes), base, "flip byte {i} bit {bit}");
                bytes[i] ^= 1 << bit;
            }
        }
    }
}
