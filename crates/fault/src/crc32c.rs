//! CRC-32C (Castagnoli, polynomial `0x1EDC6F41`), the checksum used by
//! iSCSI, ext4, and most modern storage formats — and by the S-Node
//! integrity manifest. Table-driven software implementation, no
//! dependencies; the tables are built at compile time.
//!
//! Every graph a cold probe loads is checksummed first, so the inner loop
//! is slicing-by-8: eight bytes per step through eight tables, where
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.

/// Reflected form of the Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
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
}

/// CRC-32C of `data` (the standard variant: initial value all-ones, final
/// complement).
pub fn crc32c(data: &[u8]) -> u32 {
    finish(update(START, data))
}

/// Starting state for incremental checksumming with [`update`]/[`finish`].
pub const START: u32 = 0xFFFF_FFFF;

/// Feeds `data` into an in-progress checksum state.
pub fn update(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][usize::from(w[4])]
            ^ TABLES[2][usize::from(w[5])]
            ^ TABLES[1][usize::from(w[6])]
            ^ TABLES[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Finalises an incremental checksum state into the CRC value.
pub fn finish(state: u32) -> u32 {
    !state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / common reference vectors for CRC-32C.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    /// The definition the sliced loop must agree with: one byte in, eight
    /// shift-and-conditional-xor steps, no table.
    fn bytewise(state: u32, data: &[u8]) -> u32 {
        data.iter().fold(state, |crc, &b| {
            (0..8).fold(crc ^ u32::from(b), |c, _| {
                (c >> 1) ^ if c & 1 != 0 { POLY } else { 0 }
            })
        })
    }

    #[test]
    fn more_known_vectors() {
        // RFC 3720 B.4: 32 ascending and 32 descending bytes.
        let up: Vec<u8> = (0u8..32).collect();
        let down: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(crc32c(&up), 0x46DD_794E);
        assert_eq!(crc32c(&down), 0x113F_DB5C);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(
            crc32c(b"The quick brown fox jumps over the lazy dog"),
            0x2262_0404
        );
    }

    proptest::proptest! {
        #[test]
        fn any_split_equals_the_bytewise_reference(
            data in proptest::collection::vec(proptest::any::<u8>(), 0..300),
            cuts in proptest::collection::vec(proptest::any::<u16>(), 0..6),
            state in proptest::any::<u32>(),
        ) {
            let want = bytewise(state, &data);
            proptest::prop_assert_eq!(update(state, &data), want);
            let mut at: Vec<usize> =
                cuts.iter().map(|&c| usize::from(c) % (data.len() + 1)).collect();
            at.sort_unstable();
            let (mut got, mut from) = (state, 0);
            for to in at.into_iter().chain([data.len()]) {
                got = update(got, &data[from..to]);
                from = to;
            }
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        let whole = crc32c(&data);
        let mut state = START;
        for chunk in data.chunks(7) {
            state = update(state, chunk);
        }
        assert_eq!(finish(state), whole);
    }

    #[test]
    fn single_bit_flip_always_changes_crc() {
        let data: Vec<u8> = (0u16..256).map(|i| i as u8).collect();
        let base = crc32c(&data);
        for byte in (0..data.len()).step_by(13) {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
