//! Expected outputs, computed with the bit-serial reference kernels of
//! `lfsr` (independent of the fabric, the flow and the serving stack)
//! before any timed work starts.

use picolfsr::gf2::BitVec;
use picolfsr::lfsr::crc::{crc_bitwise, CrcSpec};
use picolfsr::lfsr::scramble::{AdditiveScrambler, ScramblerSpec};

/// What a correct run must deliver for one item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// The CRC-32/Ethernet digest of the payload.
    Crc(u64),
    /// The IEEE 802.11 scrambled payload.
    Bits(BitVec),
}

impl Expected {
    /// The digest of `data` under CRC-32/Ethernet.
    pub fn crc(data: &[u8]) -> Self {
        Expected::Crc(crc_bitwise(CrcSpec::crc32_ethernet(), data))
    }

    /// `data` scrambled by the 802.11 scrambler started from `seed`.
    pub fn scrambled(seed: u64, data: &[u8]) -> Self {
        let mut reference =
            AdditiveScrambler::with_seed(ScramblerSpec::ieee80211(), seed).expect("seed fits");
        Expected::Bits(reference.scramble(&bits_of(data)))
    }

    /// Corrupts the expectation, so a correct run must now mismatch
    /// (the gate's self-test).
    #[cfg(test)]
    pub fn flip(&mut self) {
        match self {
            Expected::Crc(v) => *v ^= 1,
            Expected::Bits(b) => b.flip(0),
        }
    }
}

/// A byte payload as the bit vector the scrambler datapath consumes.
pub fn bits_of(data: &[u8]) -> BitVec {
    BitVec::from_le_bytes(data, data.len() * 8)
}
