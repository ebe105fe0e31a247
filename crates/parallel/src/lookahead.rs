//! M-level look-ahead parallelisation (paper §2, after Pei & Zukowski).
//!
//! Applying the state recurrence M times collapses M serial steps into one
//! block step:
//!
//! ```text
//! x(n+M) = A^M·x(n) + B_M·u_M(n)        B_M = [b  A·b  A²·b … A^{M−1}·b]
//! ```
//!
//! and, for transducers (scramblers), all M output bits of the block are
//! produced at once by stacking `y(n+i) = C·A^i·x(n) + …` rows.
//!
//! **Ordering convention.** The paper's `u_M(n)` lists the *latest* bit
//! first. Throughout this workspace blocks are kept in **stream order**
//! (bit fed first = index 0), so the stored input matrix is the paper's
//! `B_M` with its columns reversed. [`BlockSystem::paper_b_m`] recovers the
//! paper's layout for inspection.

use gf2::{BitMat, BitVec};
use lfsr::crc::{CrcSpec, RawCrcCore, SerialCore};
use lfsr::StateSpaceLfsr;
use std::fmt;

/// Errors from building a block system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelError {
    /// The look-ahead factor must be at least 1.
    ZeroLookahead,
    /// Derby's transform failed to find a nonsingular Krylov basis.
    SingularKrylov {
        /// How many seed vectors were tried.
        tried: usize,
    },
}

impl fmt::Display for ParallelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelError::ZeroLookahead => write!(f, "look-ahead factor must be >= 1"),
            ParallelError::SingularKrylov { tried } => write!(
                f,
                "no seed vector yielded a nonsingular Krylov transform ({tried} tried)"
            ),
        }
    }
}

impl std::error::Error for ParallelError {}

/// The M-bit-per-step block form of a [`StateSpaceLfsr`] (the paper's
/// Fig. 2 "generic scheme for an M-bit LFSR-based application").
#[derive(Debug, Clone)]
pub struct BlockSystem {
    m: usize,
    out_dim: usize,
    a_m: BitMat,
    /// k×M input→state matrix, columns in stream order.
    b_m: BitMat,
    /// (out_dim·M)×k state→outputs matrix; rows grouped per time step.
    c_stack: BitMat,
    /// (out_dim·M)×M input→outputs matrix (lower block triangular).
    d_stack: BitMat,
}

impl BlockSystem {
    /// Builds the M-level look-ahead of `sys`.
    ///
    /// # Errors
    ///
    /// Returns [`ParallelError::ZeroLookahead`] if `m == 0`.
    pub fn new(sys: &StateSpaceLfsr, m: usize) -> Result<Self, ParallelError> {
        if m == 0 {
            return Err(ParallelError::ZeroLookahead);
        }
        let k = sys.dim();
        let out = sys.out_dim();

        // Powers A^0 .. A^M.
        let mut powers = Vec::with_capacity(m + 1);
        powers.push(BitMat::identity(k));
        for _ in 0..m {
            let next = powers.last().expect("nonempty").mul(sys.a());
            powers.push(next);
        }

        // Impulse responses w_j = A^j·b, shared by B_M and D_stack.
        let w: Vec<BitVec> = (0..m).map(|j| powers[j].mul_vec(sys.b())).collect();

        // b_m column j (stream order: bit j is fed j-th, i.e. u(n+j))
        // carries weight A^{M-1-j}·b.
        let b_cols: Vec<BitVec> = (0..m).map(|j| w[m - 1 - j].clone()).collect();
        let b_m = BitMat::from_columns(&b_cols);

        // Output stack: y(n+i) = C·A^i·x(n) + Σ_{j<i} C·A^{i−1−j}·b·u(n+j)
        //                        + d·u(n+i).
        // Precompute the Markov parameters c_r·w_j once (O(out·m) dots)
        // instead of re-deriving them per (i, j) pair.
        let markov: Vec<BitVec> = (0..out)
            .map(|r| BitVec::from_bits((0..m).map(|j| sys.c().row(r).dot(&w[j]))))
            .collect();
        let mut c_rows = Vec::with_capacity(out * m);
        let mut d_rows = Vec::with_capacity(out * m);
        for (i, power) in powers.iter().enumerate().take(m) {
            let c_ai = sys.c().mul(power);
            for (r, mk) in markov.iter().enumerate() {
                c_rows.push(c_ai.row(r).clone());
                let mut d_row = BitVec::zeros(m);
                for j in 0..i {
                    if mk.get(i - 1 - j) {
                        d_row.flip(j);
                    }
                }
                if sys.d().get(r) {
                    d_row.flip(i);
                }
                d_rows.push(d_row);
            }
        }

        Ok(BlockSystem {
            m,
            out_dim: out,
            a_m: powers.pop().expect("powers nonempty"),
            b_m,
            c_stack: BitMat::from_rows(c_rows),
            d_stack: BitMat::from_rows(d_rows),
        })
    }

    /// The look-ahead factor M.
    pub fn m(&self) -> usize {
        self.m
    }

    /// State dimension k.
    pub fn dim(&self) -> usize {
        self.a_m.rows()
    }

    /// Outputs per serial step.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The feedback matrix `A^M`.
    pub fn a_m(&self) -> &BitMat {
        &self.a_m
    }

    /// The input matrix in stream order (see module docs).
    pub fn b_m(&self) -> &BitMat {
        &self.b_m
    }

    /// The input matrix in the paper's order (`[b A·b … A^{M−1}·b]`,
    /// latest bit first).
    pub fn paper_b_m(&self) -> BitMat {
        let cols: Vec<BitVec> = (0..self.m).rev().map(|j| self.b_m.column(j)).collect();
        BitMat::from_columns(&cols)
    }

    /// The stacked output matrix.
    pub fn c_stack(&self) -> &BitMat {
        &self.c_stack
    }

    /// The stacked feed-through matrix.
    pub fn d_stack(&self) -> &BitMat {
        &self.d_stack
    }

    /// Performs one block step: consumes `block` (exactly M bits, stream
    /// order), returns the next state and the `out_dim·M` output bits.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn step_block(&self, state: &BitVec, block: &BitVec) -> (BitVec, BitVec) {
        assert_eq!(block.len(), self.m, "block must be exactly M bits");
        let mut next = self.a_m.mul_vec(state);
        next.xor_assign(&self.b_m.mul_vec(block));
        let mut y = self.c_stack.mul_vec(state);
        y.xor_assign(&self.d_stack.mul_vec(block));
        (next, y)
    }

    /// Performs one block step computing only the next state (skips the
    /// stacked output networks — the CRC usage pattern, where `y` is
    /// needed once per message, not per block).
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != M`.
    pub fn step_block_state_only(&self, state: &BitVec, block: &BitVec) -> BitVec {
        assert_eq!(block.len(), self.m, "block must be exactly M bits");
        let mut next = self.a_m.mul_vec(state);
        next.xor_assign(&self.b_m.mul_vec(block));
        next
    }

    /// Runs a whole bit stream for state only (no outputs collected):
    /// full M-blocks through [`BlockSystem::step_block_state_only`], the
    /// tail serially through `tail_sys`.
    pub fn run_state_only(
        &self,
        tail_sys: &mut StateSpaceLfsr,
        state: &BitVec,
        bits: &BitVec,
    ) -> BitVec {
        let full = bits.len() / self.m;
        let mut state = state.clone();
        for c in 0..full {
            let block = bits.slice(c * self.m, self.m);
            state = self.step_block_state_only(&state, &block);
        }
        let tail = bits.slice(full * self.m, bits.len() - full * self.m);
        tail_sys.set_state(state);
        tail_sys.absorb(&tail);
        tail_sys.state().clone()
    }

    /// Runs a whole bit stream: full M-blocks through the block form, the
    /// tail serially through `tail_sys` (which must be the originating
    /// serial system). Returns the final state and all outputs.
    pub fn run(
        &self,
        tail_sys: &mut StateSpaceLfsr,
        state: &BitVec,
        bits: &BitVec,
    ) -> (BitVec, BitVec) {
        let full = bits.len() / self.m;
        let mut state = state.clone();
        let mut outputs = BitVec::zeros(0);
        for c in 0..full {
            let block = bits.slice(c * self.m, self.m);
            let (next, y) = self.step_block(&state, &block);
            state = next;
            outputs.append(&y);
        }
        let tail = bits.slice(full * self.m, bits.len() - full * self.m);
        tail_sys.set_state(state);
        let y_tail = if self.out_dim == 1 {
            tail_sys.transduce(&tail)
        } else {
            tail_sys.absorb(&tail);
            BitVec::zeros(0)
        };
        (tail_sys.state().clone(), outputs.concat(&y_tail))
    }
}

/// A [`RawCrcCore`] that advances M bits per block step using plain
/// look-ahead (Pei-style: the full `A^M` sits in the feedback loop).
#[derive(Debug, Clone)]
pub struct LookaheadCore {
    block: BlockSystem,
    serial: StateSpaceLfsr,
}

impl LookaheadCore {
    /// Builds the core for a CRC spec with look-ahead factor `m`.
    ///
    /// # Errors
    ///
    /// Propagates [`ParallelError`].
    pub fn new(spec: &CrcSpec, m: usize) -> Result<Self, ParallelError> {
        let serial = StateSpaceLfsr::crc(&spec.generator()).expect("valid catalogue generator");
        let block = BlockSystem::new(&serial, m)?;
        Ok(LookaheadCore { block, serial })
    }

    /// The underlying block system.
    pub fn block_system(&self) -> &BlockSystem {
        &self.block
    }
}

impl RawCrcCore for LookaheadCore {
    fn width(&self) -> usize {
        self.serial.dim()
    }

    fn process(&mut self, state: &BitVec, bits: &BitVec) -> BitVec {
        self.block.run_state_only(&mut self.serial, state, bits)
    }

    fn block_bits(&self) -> usize {
        self.block.m()
    }
}

/// Convenience: check a core against the serial reference on one message.
///
/// Returns `Err` with a description on the first mismatch — used by tests
/// and by the flow's self-check stage.
pub fn check_against_serial<C: RawCrcCore>(
    spec: &CrcSpec,
    core: &mut C,
    data: &[u8],
) -> Result<(), String> {
    use lfsr::crc::CrcEngine;
    let mut reference = CrcEngine::new(*spec, SerialCore::new(spec));
    let expected = reference.checksum(data);
    let bits = lfsr::crc::message_bits(spec, data);
    let init = BitVec::from_u64(spec.init & spec.mask(), spec.width);
    let fin = core.process(&init, &bits);
    let mut out = fin.to_u64();
    if spec.refout {
        out = lfsr::crc::reflect(out, spec.width);
    }
    let out = (out ^ spec.xorout) & spec.mask();
    if out == expected {
        Ok(())
    } else {
        Err(format!(
            "{}: core produced 0x{out:X}, serial reference 0x{expected:X} on {} bytes",
            spec.name,
            data.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfsr::crc::{crc_bitwise, CrcEngine};
    use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};

    #[test]
    fn block_system_rejects_m_zero() {
        let sys = StateSpaceLfsr::crc(&CrcSpec::crc32_ethernet().generator()).unwrap();
        assert_eq!(
            BlockSystem::new(&sys, 0).unwrap_err(),
            ParallelError::ZeroLookahead
        );
    }

    #[test]
    fn lookahead_crc_matches_bitwise_for_many_m() {
        let spec = CrcSpec::crc32_ethernet();
        let msg: Vec<u8> = (0u16..193).map(|i| (i * 7 + 3) as u8).collect();
        for m in [1, 2, 3, 7, 8, 16, 24, 32, 64, 128] {
            let core = LookaheadCore::new(spec, m).unwrap();
            let mut e = CrcEngine::new(*spec, core);
            for len in [0usize, 1, 15, 16, 17, 64, 193] {
                assert_eq!(
                    e.checksum(&msg[..len]),
                    crc_bitwise(spec, &msg[..len]),
                    "M={m} len={len}"
                );
            }
        }
    }

    #[test]
    fn lookahead_works_across_catalogue() {
        let msg = b"generic lfsr parallelisation";
        for spec in lfsr::crc::CATALOG.iter().filter(|s| s.width <= 32) {
            let mut core = LookaheadCore::new(spec, 24).unwrap();
            check_against_serial(spec, &mut core, msg).unwrap();
        }
    }

    #[test]
    fn scrambler_block_outputs_match_serial() {
        let sspec = ScramblerSpec::ieee80211();
        let mut serial = AdditiveScrambler::new(sspec).unwrap();
        let data = BitVec::from_u128(0x0123_4567_89AB_CDEF_0011_2233, 100);
        let expected = serial.scramble(&data);

        for m in [4usize, 16, 50, 128] {
            let base = AdditiveScrambler::new(sspec).unwrap();
            let block = BlockSystem::new(base.system(), m).unwrap();
            let mut tail = base.system().clone();
            let (_, outputs) = block.run(&mut tail, base.system().state(), &data);
            assert_eq!(outputs, expected, "M={m}");
        }
    }

    #[test]
    fn paper_b_m_is_column_reversed() {
        let sys =
            StateSpaceLfsr::crc(&CrcSpec::by_name("CRC-16/XMODEM").unwrap().generator()).unwrap();
        let bs = BlockSystem::new(&sys, 8).unwrap();
        let paper = bs.paper_b_m();
        // Paper's column 0 is b itself (weight of the latest bit).
        assert_eq!(paper.column(0), sys.b().clone());
        // Stream order: the first-fed bit has the highest weight A^{M-1}·b.
        assert_eq!(bs.b_m().column(0), sys.a().pow(7).mul_vec(sys.b()));
    }

    #[test]
    fn a_m_equals_pow() {
        let sys = StateSpaceLfsr::crc(&CrcSpec::crc32_ethernet().generator()).unwrap();
        let bs = BlockSystem::new(&sys, 32).unwrap();
        assert_eq!(*bs.a_m(), sys.a().pow(32));
    }

    #[test]
    fn block_step_linearity() {
        // step(state, block) + step(0, 0) == step over XORed arguments.
        let sys =
            StateSpaceLfsr::crc(&CrcSpec::by_name("CRC-8/SMBUS").unwrap().generator()).unwrap();
        let bs = BlockSystem::new(&sys, 16).unwrap();
        let s1 = BitVec::from_u64(0xA5, 8);
        let s2 = BitVec::from_u64(0x3C, 8);
        let b1 = BitVec::from_u64(0xDEAD, 16);
        let b2 = BitVec::from_u64(0xBEEF, 16);
        let (n1, _) = bs.step_block(&s1, &b1);
        let (n2, _) = bs.step_block(&s2, &b2);
        let (nx, _) = bs.step_block(&(&s1 ^ &s2), &(&b1 ^ &b2));
        assert_eq!(nx, &n1 ^ &n2);
    }
}

#[cfg(test)]
mod multiplicative_tests {
    use super::*;
    use gf2::Gf2Poly;

    /// The multiplicative (self-sync) scrambler exercises the one part of
    /// the block machinery nothing else does: a system with BOTH `b ≠ 0`
    /// and per-step outputs, so the full lower-triangular `D_stack`
    /// convolution carries input-to-output paths within one block.
    #[test]
    fn multiplicative_scrambler_block_form_matches_serial() {
        // 64B/66B PCS polynomial x^58 + x^39 + 1.
        let mut s_poly = Gf2Poly::x_pow(58);
        s_poly.set_coeff(39, true);
        s_poly.set_coeff(0, true);

        let data = {
            let mut v = BitVec::zeros(660);
            let mut x = 0xACE1u64;
            for i in 0..v.len() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x & 1 == 1 {
                    v.set(i, true);
                }
            }
            v
        };
        let seed = BitVec::from_u64(0x3FF_FFFF_FFFF, 58);

        let mut serial = StateSpaceLfsr::multiplicative_scrambler(&s_poly).unwrap();
        serial.set_state(seed.clone());
        let expected = serial.transduce(&data);

        for m in [6usize, 33, 66, 128] {
            let base = StateSpaceLfsr::multiplicative_scrambler(&s_poly).unwrap();
            let bs = BlockSystem::new(&base, m).unwrap();
            let mut tail = base.clone();
            let (_, out) = bs.run(&mut tail, &seed, &data);
            assert_eq!(out, expected, "M={m}");
        }
    }

    /// ...and Derby's transform applies to it too: the feedback
    /// `A = shift + e0·t` is companion-like but not companion; `A^M` is
    /// (usually) cyclic, so the transformed loop collapses again.
    #[test]
    fn multiplicative_scrambler_derby_form_matches_serial() {
        use crate::derby::DerbyTransform;
        let mut s_poly = Gf2Poly::x_pow(58);
        s_poly.set_coeff(39, true);
        s_poly.set_coeff(0, true);

        let m = 66;
        let base = StateSpaceLfsr::multiplicative_scrambler(&s_poly).unwrap();
        let bs = BlockSystem::new(&base, m).unwrap();
        let derby = DerbyTransform::new(&bs).expect("cyclic at M=66");
        assert!(derby.a_mt().is_companion());

        let data = BitVec::from_u128(0x0123_4567_89AB_CDEF_0011_2233_4455_6677, 128)
            .concat(&BitVec::from_u64(0xFFFF, 4));
        let seed = BitVec::from_u64(0x1234_5678, 58);

        let mut serial = base.clone();
        serial.set_state(seed.clone());
        let expected = serial.transduce(&data.slice(0, 132));

        let mut x_t = derby.transform_state(&seed);
        let mut out = BitVec::zeros(0);
        for c in 0..2 {
            let (next, y) = derby.step_block(&x_t, &data.slice(c * m, m));
            x_t = next;
            out = out.concat(&y);
        }
        assert_eq!(out, expected);
    }
}
