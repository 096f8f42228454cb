//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! of every on-disk container in the workspace (feature shards, parity
//! sidecars, checkpoint sections). It lives here because `betty-tensor`
//! is the lowest crate both `betty-data` and `betty-nn` depend on.
//!
//! Slice-by-8: eight bytes per step through eight derived tables, instead
//! of one table lookup per byte. Same polynomial, same values — files
//! written by the bytewise loop validate unchanged.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// of byte `i` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`. Any single-bit error within the span is
/// guaranteed to change the checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the on-disk formats were first written
    /// with, kept as the reference the sliced version must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);

        // Every length around the 8-byte stride, head and tail included.
        let bytes: Vec<u8> = (0..17u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bytewise(&bytes[..len]),
                "len {len}"
            );
        }

        // A 1 MiB buffer starting at every offset within a stride, so
        // the chunking cannot depend on the slice's alignment.
        let mut state = 0x2545_F491u32;
        let big: Vec<u8> = (0..(1 << 20) + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state >> 24) as u8
            })
            .collect();
        for offset in [1usize, 3, 7] {
            let slice = &big[offset..offset + (1 << 20)];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "offset {offset}");
        }
    }
}
