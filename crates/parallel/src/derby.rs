//! Derby's state-space transformation (paper §2, the method the authors
//! selected for PiCoGA).
//!
//! Plain M-level look-ahead puts the dense matrix `A^M` inside the feedback
//! loop, which caps the clock of any implementation. Derby (GLOBECOM 1996)
//! instead transforms the state through a nonsingular `T`:
//!
//! ```text
//! x(n) = T·x_t(n)
//! x_t(n+M) = (T⁻¹·A^M·T)·x_t(n) + (T⁻¹·B_M)·u_M(n)
//! ```
//!
//! With `T` chosen as the Krylov basis `[f, A^M·f, …, A^{(k−1)M}·f]`, the
//! transformed feedback `A_Mt = T⁻¹·A^M·T` is again a **companion matrix**
//! — minimal loop complexity — while the grown input network `B_Mt` sits
//! outside the loop and "can be fully pipelined", which is exactly what a
//! pipelined gate array wants.

use crate::lookahead::{BlockSystem, ParallelError};
use gf2::{BitMat, BitVec};
use lfsr::crc::{CrcSpec, RawCrcCore};
use lfsr::StateSpaceLfsr;

/// Complexity report for one seed-vector choice (the paper's §4 "we also
/// empirically analyzed the impact of the arbitrary vector f").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerbyComplexity {
    /// The seed vector that was used.
    pub f: BitVec,
    /// Ones in the transformed input matrix `B_Mt` (XOR-network size).
    pub b_mt_ones: usize,
    /// Ones in the anti-transform `T` (the second PiCoGA operation).
    pub t_ones: usize,
    /// Ones in the companion feedback column.
    pub feedback_ones: usize,
}

/// The transformed block system: companion feedback, pipelined input
/// network, and the anti-transform for reading results back.
#[derive(Debug, Clone)]
pub struct DerbyTransform {
    m: usize,
    t: BitMat,
    t_inv: BitMat,
    a_mt: BitMat,
    /// `T⁻¹·B_M`, columns in stream order (see `lookahead` module docs).
    b_mt: BitMat,
    /// `C_stack·T` for transducers.
    c_stack_t: BitMat,
    d_stack: BitMat,
    f: BitVec,
}

impl DerbyTransform {
    /// Builds the transform for `block`, choosing the seed vector `f`
    /// automatically: first the unit vectors (the paper settled on
    /// `f = [1 0 … 0]`), then pseudo-random candidates, until the Krylov
    /// matrix is nonsingular.
    ///
    /// # Errors
    ///
    /// [`ParallelError::SingularKrylov`] if no candidate works (the matrix
    /// `A^M` is derogatory enough that no single Krylov vector spans the
    /// space — possible for composite generators at unlucky M).
    pub fn new(block: &BlockSystem) -> Result<Self, ParallelError> {
        let k = block.dim();
        // Fail fast with an exact certificate: a companion similarity
        // exists iff A^M is cyclic (its minimal polynomial has degree k).
        if !block.a_m().is_cyclic() {
            return Err(ParallelError::SingularKrylov { tried: 0 });
        }
        let mut tried = 0;
        for i in 0..k {
            tried += 1;
            if let Some(d) = Self::with_seed(block, &BitVec::unit(i, k)) {
                return Ok(d);
            }
        }
        // Deterministic xorshift-style fallback candidates.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            tried += 1;
            let mut f = BitVec::zeros(k);
            for j in 0..k {
                if (x >> (j % 64)) & 1 == 1 {
                    f.set(j, true);
                }
            }
            if f.is_zero() {
                continue;
            }
            if let Some(d) = Self::with_seed(block, &f) {
                return Ok(d);
            }
        }
        Err(ParallelError::SingularKrylov { tried })
    }

    /// Attempts the transform with an explicit seed vector, returning
    /// `None` if the resulting Krylov matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if `f.len()` differs from the state dimension.
    pub fn with_seed(block: &BlockSystem, f: &BitVec) -> Option<Self> {
        let t = block.a_m().krylov(f);
        let t_inv = t.inverse()?;
        let a_mt = t_inv.mul(block.a_m()).mul(&t);
        debug_assert!(a_mt.is_companion(), "Krylov similarity must be companion");
        let b_mt = t_inv.mul(block.b_m());
        let c_stack_t = block.c_stack().mul(&t);
        Some(DerbyTransform {
            m: block.m(),
            t,
            t_inv,
            a_mt,
            b_mt,
            c_stack_t,
            d_stack: block.d_stack().clone(),
            f: f.clone(),
        })
    }

    /// Look-ahead factor M.
    pub fn m(&self) -> usize {
        self.m
    }

    /// State dimension k.
    pub fn dim(&self) -> usize {
        self.t.rows()
    }

    /// The seed vector that produced this transform.
    pub fn f(&self) -> &BitVec {
        &self.f
    }

    /// The transformation matrix `T` (also the anti-transform network
    /// `y = T·x_t`, the paper's second PiCoGA operation).
    pub fn t(&self) -> &BitMat {
        &self.t
    }

    /// `T⁻¹`, used once per message to transform the initial state.
    pub fn t_inv(&self) -> &BitMat {
        &self.t_inv
    }

    /// The companion feedback matrix `A_Mt`.
    pub fn a_mt(&self) -> &BitMat {
        &self.a_mt
    }

    /// The transformed input network `B_Mt` (stream order).
    pub fn b_mt(&self) -> &BitMat {
        &self.b_mt
    }

    /// The transformed stacked output matrix `C_stack·T`.
    pub fn c_stack_t(&self) -> &BitMat {
        &self.c_stack_t
    }

    /// The (untransformed) feed-through matrix.
    pub fn d_stack(&self) -> &BitMat {
        &self.d_stack
    }

    /// Complexity figures for this transform.
    pub fn complexity(&self) -> DerbyComplexity {
        let k = self.dim();
        DerbyComplexity {
            f: self.f.clone(),
            b_mt_ones: self.b_mt.count_ones(),
            t_ones: self.t.count_ones(),
            feedback_ones: self.a_mt.column(k - 1).count_ones(),
        }
    }

    /// A deterministic fingerprint of the transform: FNV-1a over `M`,
    /// the state dimension and the rows of `T`. Two transforms with the
    /// same digest interpret a transformed state identically, so a
    /// checkpoint stamped with this digest can be restored onto any lane
    /// whose transform matches — including a re-synthesized replacement
    /// placement, which changes the XOR network but not `T`.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        mix(self.m as u64);
        mix(self.dim() as u64);
        for r in 0..self.t.rows() {
            for &w in self.t.row(r).words() {
                mix(w);
            }
        }
        h
    }

    /// Marshals a transformed state from this transform's domain into
    /// `other`'s: anti-transform through this `T`, re-transform through
    /// the other `T⁻¹`. This is the migration path a checkpointed stream
    /// takes when it resumes on a lane built with a different transform
    /// (e.g. a replacement personality at a different look-ahead factor).
    ///
    /// # Panics
    ///
    /// Panics if the state dimensions disagree.
    pub fn marshal_state_to(&self, other: &DerbyTransform, x_t: &BitVec) -> BitVec {
        assert_eq!(
            self.dim(),
            other.dim(),
            "cannot marshal between transforms of different dimension"
        );
        other.transform_state(&self.anti_transform_state(x_t))
    }

    /// Maps a plain state into the transformed domain.
    pub fn transform_state(&self, x: &BitVec) -> BitVec {
        self.t_inv.mul_vec(x)
    }

    /// Maps a transformed state back to the plain domain (the
    /// anti-transform `x = T·x_t`).
    pub fn anti_transform_state(&self, x_t: &BitVec) -> BitVec {
        self.t.mul_vec(x_t)
    }

    /// One block step entirely in the transformed domain, returning the
    /// next transformed state and the block's output bits.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != M`.
    pub fn step_block(&self, x_t: &BitVec, block: &BitVec) -> (BitVec, BitVec) {
        let next = self.step_block_state_only(x_t, block);
        let mut y = self.c_stack_t.mul_vec(x_t);
        y.xor_assign(&self.d_stack.mul_vec(block));
        (next, y)
    }

    /// The state half of [`DerbyTransform::step_block`] alone:
    /// `A_Mt·x_t ⊕ B_Mt·u`, without the output products.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != M`.
    pub fn step_block_state_only(&self, x_t: &BitVec, block: &BitVec) -> BitVec {
        assert_eq!(block.len(), self.m, "block must be exactly M bits");
        let mut next = self.a_mt.mul_vec(x_t);
        next.xor_assign(&self.b_mt.mul_vec(block));
        next
    }
}

/// A [`RawCrcCore`] implementing the paper's chosen CRC structure: block
/// steps with companion feedback in the transformed domain, anti-transform
/// at the end of the message, serial tail for non-multiple lengths.
#[derive(Debug, Clone)]
pub struct DerbyCore {
    derby: DerbyTransform,
    serial: StateSpaceLfsr,
}

impl DerbyCore {
    /// Builds the core for a CRC spec with look-ahead factor `m`.
    ///
    /// # Errors
    ///
    /// Propagates [`ParallelError`].
    pub fn new(spec: &CrcSpec, m: usize) -> Result<Self, ParallelError> {
        let serial = StateSpaceLfsr::crc(&spec.generator()).expect("valid catalogue generator");
        let block = BlockSystem::new(&serial, m)?;
        let derby = DerbyTransform::new(&block)?;
        Ok(DerbyCore { derby, serial })
    }

    /// The underlying transform.
    pub fn transform(&self) -> &DerbyTransform {
        &self.derby
    }
}

impl RawCrcCore for DerbyCore {
    fn width(&self) -> usize {
        self.serial.dim()
    }

    fn process(&mut self, state: &BitVec, bits: &BitVec) -> BitVec {
        let m = self.derby.m();
        let full = bits.len() / m;
        let mut x_t = self.derby.transform_state(state);
        for c in 0..full {
            x_t = self
                .derby
                .step_block_state_only(&x_t, &bits.slice(c * m, m));
        }
        let x = self.derby.anti_transform_state(&x_t);
        let tail_len = bits.len() - full * m;
        if tail_len == 0 {
            return x;
        }
        self.serial.set_state(x);
        self.serial.absorb(&bits.slice(full * m, tail_len));
        self.serial.state().clone()
    }

    fn block_bits(&self) -> usize {
        self.derby.m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookahead::check_against_serial;
    use lfsr::crc::{crc_bitwise, CrcEngine, CATALOG};

    #[test]
    fn transformed_feedback_is_companion_for_ethernet() {
        let spec = CrcSpec::crc32_ethernet();
        for m in [2usize, 8, 32, 64, 128] {
            let core = DerbyCore::new(spec, m).unwrap();
            assert!(core.transform().a_mt().is_companion(), "M={m}");
            // Similarity must hold: T·A_Mt = A^M·T.
            let d = core.transform();
            let sys = StateSpaceLfsr::crc(&spec.generator()).unwrap();
            let a_m = sys.a().pow(m as u64);
            assert_eq!(d.t().mul(d.a_mt()), a_m.mul(d.t()), "M={m}");
        }
    }

    #[test]
    fn paper_default_seed_works_for_crc32() {
        // §4: "we selected f = [1 0 … 0]".
        let spec = CrcSpec::crc32_ethernet();
        let sys = StateSpaceLfsr::crc(&spec.generator()).unwrap();
        for m in [32usize, 64, 128] {
            let block = BlockSystem::new(&sys, m).unwrap();
            let d = DerbyTransform::with_seed(&block, &BitVec::unit(0, 32));
            assert!(d.is_some(), "f = e0 should be nonsingular at M={m}");
        }
    }

    #[test]
    fn derby_crc_matches_bitwise() {
        let spec = CrcSpec::crc32_ethernet();
        let msg: Vec<u8> = (0u16..300).map(|i| (i * 31 + 7) as u8).collect();
        for m in [2usize, 8, 32, 64, 128] {
            let core = DerbyCore::new(spec, m).unwrap();
            let mut e = CrcEngine::new(*spec, core);
            for len in [0usize, 1, 4, 16, 46, 64, 123, 300] {
                assert_eq!(
                    e.checksum(&msg[..len]),
                    crc_bitwise(spec, &msg[..len]),
                    "M={m} len={len}"
                );
            }
        }
    }

    #[test]
    fn derby_works_across_catalogue() {
        let msg = b"derby state-space transformation";
        for spec in CATALOG.iter().filter(|s| s.width <= 32) {
            match DerbyCore::new(spec, 16) {
                Ok(mut core) => check_against_serial(spec, &mut core, msg).unwrap(),
                Err(ParallelError::SingularKrylov { .. }) => {
                    // Acceptable for composite generators at this M; the
                    // flow falls back to plain look-ahead in that case.
                }
                Err(e) => panic!("{}: {e}", spec.name),
            }
        }
    }

    #[test]
    fn anti_transform_roundtrip() {
        let spec = CrcSpec::crc32_ethernet();
        let core = DerbyCore::new(spec, 64).unwrap();
        let d = core.transform();
        let x = BitVec::from_u64(0xDEADBEEF, 32);
        assert_eq!(d.anti_transform_state(&d.transform_state(&x)), x);
    }

    #[test]
    fn digest_distinguishes_transforms_and_survives_resynthesis() {
        let spec = CrcSpec::crc32_ethernet();
        let a = DerbyCore::new(spec, 32).unwrap();
        let b = DerbyCore::new(spec, 32).unwrap();
        let c = DerbyCore::new(spec, 64).unwrap();
        // Same spec + M ⇒ same T ⇒ same digest (re-synthesis changes the
        // XOR mapping, never the transform).
        assert_eq!(a.transform().digest(), b.transform().digest());
        assert_ne!(a.transform().digest(), c.transform().digest());
    }

    #[test]
    fn marshal_state_crosses_transform_boundaries() {
        let spec = CrcSpec::crc32_ethernet();
        let a = DerbyCore::new(spec, 32).unwrap();
        let b = DerbyCore::new(spec, 64).unwrap();
        let plain = BitVec::from_u64(0xFEED_BEEF, 32);
        let x_ta = a.transform().transform_state(&plain);
        let x_tb = a.transform().marshal_state_to(b.transform(), &x_ta);
        // The marshalled state means the same plain state under b's T.
        assert_eq!(b.transform().anti_transform_state(&x_tb), plain);
    }

    #[test]
    fn complexity_reports_are_consistent() {
        let spec = CrcSpec::crc32_ethernet();
        let core = DerbyCore::new(spec, 32).unwrap();
        let c = core.transform().complexity();
        assert!(c.b_mt_ones > 0 && c.t_ones >= 32);
        // The companion feedback column must be dramatically sparser than
        // the dense A^M the plain look-ahead would have in its loop.
        let sys = StateSpaceLfsr::crc(&spec.generator()).unwrap();
        let dense = sys.a().pow(32).count_ones();
        assert!(
            c.feedback_ones + 32 < dense,
            "companion loop ({} ones + shifts) should beat dense A^M ({dense} ones)",
            c.feedback_ones
        );
    }

    #[test]
    fn scrambler_outputs_survive_the_transform() {
        use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
        let sspec = ScramblerSpec::ieee80211();
        let mut serial = AdditiveScrambler::new(sspec).unwrap();
        let data = BitVec::from_u128(0xFEDC_BA98_7654_3210_0F1E_2D3C, 96);
        let expected = serial.scramble(&data);

        let base = AdditiveScrambler::new(sspec).unwrap();
        let block = BlockSystem::new(base.system(), 32).unwrap();
        let derby = DerbyTransform::new(&block).unwrap();
        let mut x_t = derby.transform_state(base.system().state());
        let mut out = BitVec::zeros(0);
        for c in 0..3 {
            let (next, y) = derby.step_block(&x_t, &data.slice(c * 32, 32));
            x_t = next;
            out = out.concat(&y);
        }
        assert_eq!(out, expected);
    }
}
