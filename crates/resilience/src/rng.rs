//! A tiny deterministic PRNG for fault campaigns.
//!
//! The build environment vendors no `rand`; campaigns only need a few
//! well-distributed 64-bit draws per trial and **bit-for-bit
//! reproducibility from a seed**, which SplitMix64 (Steele, Lea &
//! Flood's `splitmix64` finaliser) provides in ten lines. It is also the
//! generator conventionally used to seed larger PRNGs, so its statistical
//! quality is well studied.

/// The SplitMix64 finaliser: a full-avalanche bijective 64-bit mix (a
/// variant of the MurmurHash3 finaliser) applied to `x` plus the Weyl
/// increment. `mix64(x)` is the first draw of `SplitMix64::new(x)`.
#[inline]
#[must_use]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: a 64-bit state marched by a Weyl sequence and finished
/// with [`mix64`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose whole future is determined by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = mix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Uniform draw from `0..bound` (`bound` = 0 returns 0). Uses the
    /// widening-multiply trick; the modulo bias is < 2⁻⁶⁴·bound, far
    /// below campaign resolution.
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// An independent generator split off from this one (distinct draws
    /// even for related seeds).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_sequence() {
        // Reference values of splitmix64 from seed 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn mix64_is_the_first_draw() {
        for x in [0, 1, 2008, 0xD1EA_2008, u64::MAX, 1 << 63] {
            assert_eq!(mix64(x), SplitMix64::new(x).next_u64(), "x={x:#x}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_bounds_and_covers() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
